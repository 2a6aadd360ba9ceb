package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// A failed reload — here a genuinely corrupt weights payload going
// through Model.Load — must leave the previously published model
// serving.
func TestReloadKeepsOldModelOnCorruptWeights(t *testing.T) {
	ds, _ := fixture(t)
	calls := 0
	loader := func() (*core.Model, error) {
		calls++
		m, err := core.New(ds, ds.TrainTrips(), fixCfg)
		if err != nil {
			return nil, err
		}
		if calls > 1 {
			// Second load: corrupt weights file. Load validates before
			// writing, so this must fail cleanly.
			if err := m.Load(strings.NewReader(`{"corrupt": tru`)); err != nil {
				return nil, err
			}
			return m, nil
		}
		m.RefreshEmbeddings()
		return m, nil
	}
	reg := NewRegistry(loader)

	if reg.Model() != nil {
		t.Fatal("registry non-empty before first reload")
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	old := reg.Model()
	if old == nil {
		t.Fatal("no model after successful reload")
	}

	if err := reg.Reload(); err == nil {
		t.Fatal("reload with corrupt weights succeeded")
	}
	if reg.Model() != old {
		t.Fatal("failed reload replaced the served model")
	}

	// The kept model still matches.
	tr := ds.TestTrips()[0]
	if _, err := old.Match(tr.Cell); err != nil {
		t.Fatalf("old model broken after failed reload: %v", err)
	}
}

func TestReloadFailpoint(t *testing.T) {
	_, m := fixture(t)
	reg := staticRegistry(t, m)
	t.Cleanup(faultinject.DisarmAll)

	old := reg.Model()
	if err := faultinject.Arm("serve.reload.fail"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Fatal("reload with armed failpoint succeeded")
	}
	if reg.Model() != old {
		t.Fatal("faulted reload replaced the served model")
	}
	faultinject.DisarmAll()
	if err := reg.Reload(); err != nil {
		t.Fatalf("reload after disarm: %v", err)
	}
}

func TestReloadLoaderMustProduceEmbeddings(t *testing.T) {
	ds, _ := fixture(t)
	reg := NewRegistry(func() (*core.Model, error) {
		// A skeleton without RefreshEmbeddings/Load is unusable; the
		// registry must refuse to publish it.
		return core.New(ds, ds.TrainTrips(), fixCfg)
	})
	if err := reg.Reload(); err == nil {
		t.Fatal("reload published a model without embeddings")
	}
	if reg.Model() != nil {
		t.Fatal("unusable model published")
	}
}

// End to end over HTTP: a failed /v1/reload answers 5xx and matching
// continues on the old model.
func TestReloadHTTP(t *testing.T) {
	ds, m := fixture(t)
	calls := 0
	reg := NewRegistry(func() (*core.Model, error) {
		calls++
		if calls > 1 {
			return nil, fmt.Errorf("weights file corrupted")
		}
		return m, nil
	})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, body := postJSON(t, hs.URL+"/v1/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload: %d (%s), want 500", resp.StatusCode, body)
	}
	tr := ds.TestTrips()[0]
	resp, body = postJSON(t, hs.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match after failed reload: %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestServeReloadUnderLoad fires POST /v1/reload concurrently with
// eight clients' match requests against a registry that flips between
// two models with different weights. A request pins one snapshot:
// every response byte-equals one model's direct output — a body scored
// partly on old and partly on new weights would match neither.
func TestServeReloadUnderLoad(t *testing.T) {
	ds, mA := fixture(t)
	tr := ds.TestTrips()[0]

	// Model B: same skeleton, different seed — visibly different scores.
	cfgB := fixCfg
	cfgB.Seed = 99
	mB, err := core.New(fixDS, fixDS.TrainTrips(), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	mB.RefreshEmbeddings()

	encode := func(m *core.Model) []byte {
		res, err := m.MatchContext(context.Background(), tr.Cell)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(ResultJSON(res)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantA, wantB := encode(mA), encode(mB)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("fixture models agree; reload test has no signal")
	}

	var flip atomic.Int64
	reg := NewRegistry(func() (*core.Model, error) {
		if flip.Add(1)%2 == 0 {
			return mB, nil
		}
		return mA, nil
	})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(reg, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PointsRequest(tr.Cell)
	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload: %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				resp, body := postJSON(t, ts.URL+"/v1/match", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("match: %d: %s", resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, wantA) && !bytes.Equal(body, wantB) {
					t.Error("response matches neither snapshot: weights mixed mid-request")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reloads.Wait()
}

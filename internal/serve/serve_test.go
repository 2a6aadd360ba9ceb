package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/traj"
)

// The fixture dataset and model are built once: an untrained model
// with frozen embeddings scores deterministically for its seed, which
// is all the serving layer needs (it never trains).
var (
	fixOnce sync.Once
	fixDS   *traj.Dataset
	fixErr  error
	fixCfg  core.Config
)

func fixture(t testing.TB) (*traj.Dataset, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		fixCfg = core.DefaultConfig()
		fixCfg.Dim = 16
		fixCfg.Epochs = 2
		fixCfg.FuseEpochs = 1
		fixCfg.K = 10
		fixCfg.PoolSize = 20
		fixCfg.CoPool = 8
		fixCfg.PairsPerTrip = 24
		fixDS, fixErr = synth.GenerateDataset(synth.DatasetConfig{
			Seed: 7,
			City: synth.CityConfig{
				Name:          "serve-test",
				HalfSize:      2200,
				BlockSize:     250,
				CoreRadius:    1100,
				NodeJitter:    15,
				EdgeDropCore:  0.05,
				EdgeDropRural: 0.35,
				ArterialEvery: 4,
				TowerCount:    45,
			},
			Trips: synth.TripConfig{
				Count:            10,
				MinLen:           1200,
				MaxLen:           3500,
				GPSInterval:      20,
				GPSNoise:         8,
				CellMeanInterval: 40,
				Serving:          cellular.DefaultServingModel(),
			},
			Preprocess: true,
			Filter:     traj.DefaultFilterConfig(),
			TrainFrac:  0.7,
			ValidFrac:  0.1,
		})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	m, err := core.New(fixDS, fixDS.TrainTrips(), fixCfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEmbeddings()
	return fixDS, m
}

// staticRegistry serves a fixed model (tests that don't reload).
func staticRegistry(t testing.TB, m *core.Model) *Registry {
	t.Helper()
	reg := NewRegistry(func() (*core.Model, error) { return m, nil })
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	return reg
}

func testServer(t testing.TB, m *core.Model, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(staticRegistry(t, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// POST /v1/match must answer the exact bytes an offline match of the
// same trajectory encodes — the core online/offline parity contract.
func TestMatchEndpointParity(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]

	resp, got := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match: %d: %s", resp.StatusCode, got)
	}

	res, err := m.MatchContext(context.Background(), tr.Cell)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ResultJSON(res)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("online and offline matches differ:\nonline:  %s\noffline: %s", got, want.Bytes())
	}
}

func TestMatchRequestValidation(t *testing.T) {
	_, m := fixture(t)
	_, ts := testServer(t, m, Config{})

	resp, _ := postJSON(t, ts.URL+"/v1/match", MatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{Points: []Point{{Tower: 1 << 20, T: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tower: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/match", MatchRequest{
		Points:  []Point{{Tower: 0, T: 1}},
		Options: &MatchOptions{OnBreak: "bogus"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad option: %d, want 400", resp.StatusCode)
	}
	// The default strict sanitizer rejects a timestamp that does not
	// increase, in a match body and in a session push: the client's
	// input is at fault, not the server. The session keeps accepting
	// well-formed points.
	resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{Points: []Point{{Tower: 0, T: 0}, {Tower: 1, T: 0}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("repeated timestamp: %d (%s), want 400", resp.StatusCode, body)
	}
	tr := sessionTrip(t)
	id := createSession(t, ts.URL, 2)
	pushPoints(t, ts.URL, id, tr[1:2])
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/points", PushRequest{Points: PointsRequest(tr[:1]).Points})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push of a backward timestamp: %d (%s), want 400", resp.StatusCode, body)
	}
	pushPoints(t, ts.URL, id, tr[2:3])
}

// FuzzMatchBody sends arbitrary bytes as a POST /v1/match body. The
// server may refuse them with a 4xx, and a tiny timeout_ms may end the
// match with a 504, but no body may panic the handler or earn a 500:
// without an armed failpoint, a 500 is a server fault a client could
// trigger at will.
func FuzzMatchBody(f *testing.F) {
	ds, m := fixture(f)
	s, err := New(staticRegistry(f, m), Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	for _, req := range []MatchRequest{
		PointsRequest(ds.TestTrips()[0].Cell),
		{Points: []Point{{Tower: 1 << 20, T: 1}}},
		{Points: []Point{{Tower: 0, T: 0}, {Tower: 1, T: 0}}},
		{Points: []Point{{Tower: 0, T: 1}}, Options: &MatchOptions{OnBreak: "bogus"}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("body %q: 500 %s", body, rec.Body.Bytes())
		}
	})
}

// An HTTP streaming session must finalize the same matches as an
// offline StreamMatcher fed the same points.
func TestStreamingSessionParity(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{DefaultLag: 2})
	tr := ds.TestTrips()[0]

	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Lag != 2 {
		t.Fatalf("lag %d, want server default 2", sess.Lag)
	}

	var online []MatchedPoint
	for _, p := range PointsRequest(tr.Cell).Points {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sess.ID+"/points", PushRequest{Points: []Point{p}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: %d: %s", resp.StatusCode, body)
		}
		var pr PushResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		online = append(online, pr.Finalized...)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+sess.ID+"/finish", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finish: %d: %s", resp.StatusCode, body)
	}
	var fin MatchResponse
	if err := json.Unmarshal(body, &fin); err != nil {
		t.Fatal(err)
	}

	// Offline reference: same model, same lag, same points.
	sm := m.NewStream(2)
	for _, p := range tr.Cell {
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	sm.Flush()
	want := streamResultJSON(sm)

	if len(fin.Matched) != len(want.Matched) {
		t.Fatalf("finish reported %d matches, offline %d", len(fin.Matched), len(want.Matched))
	}
	if len(online) != len(want.Matched)-2 {
		t.Fatalf("pushes finalized %d matches before finish, want %d (lag 2)", len(online), len(want.Matched)-2)
	}
	for i, mp := range fin.Matched {
		if mp != want.Matched[i] {
			t.Fatalf("match %d differs: online %+v offline %+v", i, mp, want.Matched[i])
		}
	}
	gotJSON, _ := json.Marshal(fin)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("streamed result differs:\nonline:  %s\noffline: %s", gotJSON, wantJSON)
	}

	// The session is gone after finish.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+sess.ID+"/points", PushRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("push after finish: %d, want 404", resp.StatusCode)
	}
}

// With one worker and no queue, a second concurrent match must shed
// with 429 while the first is still running — and nothing deadlocks.
func TestOverloadSheds429(t *testing.T) {
	ds, m := fixture(t)
	s, ts := testServer(t, m, Config{Workers: 1, Queue: 0})
	tr := ds.TestTrips()[0]

	started := make(chan struct{})
	unblock := make(chan struct{})
	s.testHookMatchStarted = func() {
		close(started)
		<-unblock
	}

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		first <- resp.StatusCode
	}()
	<-started

	resp, body := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded match: %d (%s), want 429", resp.StatusCode, body)
	}

	close(unblock)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first match: %d, want 200", code)
	}
}

// Drain must reject new work with 503, keep health endpoints live, and
// wait for the in-flight match to finish.
func TestGracefulDrain(t *testing.T) {
	ds, m := fixture(t)
	s, ts := testServer(t, m, Config{Workers: 2})
	tr := ds.TestTrips()[0]

	started := make(chan struct{})
	unblock := make(chan struct{})
	s.testHookMatchStarted = func() {
		close(started)
		<-unblock
	}

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		inflight <- resp.StatusCode
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, s.isDraining)

	resp, _ := postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("match during drain: %d, want 503", resp.StatusCode)
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil || hc.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %v", hc, err)
	}
	hc.Body.Close()
	rc, err := http.Get(ts.URL + "/readyz")
	if err != nil || rc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %v %v, want 503", rc, err)
	}
	rc.Body.Close()

	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a match still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(unblock)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight match during drain: %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A drain that exceeds its deadline reports the context error instead
// of hanging.
func TestDrainTimeout(t *testing.T) {
	ds, m := fixture(t)
	s, ts := testServer(t, m, Config{Workers: 1})
	tr := ds.TestTrips()[0]

	started := make(chan struct{})
	unblock := make(chan struct{})
	s.testHookMatchStarted = func() {
		close(started)
		<-unblock
	}
	done := make(chan struct{})
	go func() {
		postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
		close(done)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with a stuck match returned nil before its deadline")
	}
	close(unblock)
	<-done
}

// Armed failpoints must surface as 5xx responses, never a crash.
func TestFailpointsReturn5xx(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]
	t.Cleanup(faultinject.DisarmAll)

	if err := faultinject.Arm("serve.session.create"); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{})
	if resp.StatusCode < 500 {
		t.Fatalf("session create with armed failpoint: %d (%s), want 5xx", resp.StatusCode, body)
	}
	faultinject.DisarmAll()

	if err := faultinject.Arm("hmm.candidates.empty"); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode < 500 {
		t.Fatalf("match with dead candidates armed: %d (%s), want 5xx", resp.StatusCode, body)
	}
	faultinject.DisarmAll()

	// Disarmed again, the same request succeeds: the failure was
	// contained to the faulted requests.
	resp, body = postJSON(t, ts.URL+"/v1/match", PointsRequest(tr.Cell))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match after disarm: %d (%s), want 200", resp.StatusCode, body)
	}
}

// Per-request break/sanitize overrides apply without mutating the
// shared model.
func TestMatchOptionOverrides(t *testing.T) {
	ds, m := fixture(t)
	_, ts := testServer(t, m, Config{})
	tr := ds.TestTrips()[0]
	t.Cleanup(faultinject.DisarmAll)

	if err := faultinject.Arm("hmm.candidates.empty:3"); err != nil {
		t.Fatal(err)
	}
	req := PointsRequest(tr.Cell)
	req.Options = &MatchOptions{OnBreak: "skip"}
	resp, body := postJSON(t, ts.URL+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("skip-policy match with dead points: %d (%s), want 200", resp.StatusCode, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, mp := range mr.Matched {
		if mp.Dead {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("no dead points despite armed empty-candidates failpoint")
	}
	if m.Cfg.OnBreak.String() != "error" {
		t.Fatalf("request override leaked into shared model: OnBreak = %s", m.Cfg.OnBreak)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	_, m := fixture(t)
	_, ts := testServer(t, m, Config{})

	for _, ep := range []string{"/healthz", "/readyz", "/metrics.json"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d (%s)", ep, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Fatalf("%s: invalid JSON: %s", ep, body)
		}
	}
	// /metrics is Prometheus text now.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d (%s)", resp.StatusCode, body)
	}
	if err := obs.ValidatePromText(body); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
}

// readyz reports 503 until a model is published.
func TestReadyzWithoutModel(t *testing.T) {
	reg := NewRegistry(func() (*core.Model, error) {
		return nil, fmt.Errorf("nope")
	})
	s, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz without model: %d, want 503", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/match", MatchRequest{Points: []Point{{T: 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("match without model: %d (%s), want 503", resp.StatusCode, body)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, m := fixture(t)
	_, ts := testServer(t, m, Config{MaxBodyBytes: 128})

	big := strings.Repeat("x", 4096)
	resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

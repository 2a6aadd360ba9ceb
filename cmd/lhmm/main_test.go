package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	lhmm "repro"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/shadow"
	"repro/internal/traj"
)

// TestCLIPipeline exercises the command implementations end to end:
// datagen → train → match → eval, through the same code paths the CLI
// binary uses (the cmd* functions), with artifacts in a temp dir.
func TestCLIPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.json")
	model := filepath.Join(dir, "model.lhmm")
	geojson := filepath.Join(dir, "trip.geojson")

	if err := cmdDatagen([]string{
		"-preset", "xiamen", "-scale", "0.02", "-trips", "30", "-out", data,
	}); err != nil {
		t.Fatalf("datagen: %v", err)
	}
	if fi, err := os.Stat(data); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset file missing: %v", err)
	}

	if err := cmdTrain([]string{
		"-data", data, "-model", model, "-dim", "8", "-epochs", "1", "-k", "8",
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if fi, err := os.Stat(model); err != nil || fi.Size() == 0 {
		t.Fatalf("model file missing: %v", err)
	}

	if err := cmdMatch([]string{
		"-data", data, "-model", model, "-trip", "0",
		"-k", "8", "-geojson", geojson,
	}); err != nil {
		t.Fatalf("match: %v", err)
	}
	gj, err := os.ReadFile(geojson)
	if err != nil {
		t.Fatalf("geojson missing: %v", err)
	}
	if !strings.Contains(string(gj), "FeatureCollection") {
		t.Error("geojson output malformed")
	}

	if err := cmdEval([]string{
		"-data", data, "-model", model, "-methods", "LHMM,STM", "-k", "8",
	}); err != nil {
		t.Fatalf("eval: %v", err)
	}

	// Error paths.
	if err := cmdDatagen([]string{"-preset", "nowhere", "-out", data}); err == nil {
		t.Error("bad preset did not error")
	}
	if err := cmdMatch([]string{
		"-data", data, "-model", model, "-trip", "9999", "-k", "8",
	}); err == nil {
		t.Error("out-of-range trip did not error")
	}
	if err := cmdEval([]string{
		"-data", data, "-methods", "LHMM", "-k", "8",
	}); err == nil {
		t.Error("LHMM without -model did not error")
	}
}

// TestDatasetFileCompat pins that datagen output loads through the
// library reader with all splits intact.
func TestDatasetFileCompat(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.json")
	if err := cmdDatagen([]string{
		"-preset", "hangzhou", "-scale", "0.02", "-trips", "20", "-out", data, "-seed", "123",
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := traj.ReadDataset(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train)+len(ds.Valid)+len(ds.Test) != len(ds.Trips) {
		t.Error("splits do not partition trips")
	}
	var _ = lhmm.Config{} // the facade stays importable from cmd tests
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	ferr := f()
	os.Stdout = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// againstReport extracts the JSON report `lhmm replay -against` prints
// after its "shadow report" line.
func againstReport(t *testing.T, out string) shadow.Report {
	t.Helper()
	_, rest, ok := strings.Cut(out, "shadow report (")
	if !ok {
		t.Fatalf("no report in output:\n%s", out)
	}
	var rep shadow.Report
	if err := json.Unmarshal([]byte(rest[strings.Index(rest, "{"):]), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out)
	}
	return rep
}

// TestReplayAgainst holds the offline candidate comparison: requests
// captured from an in-process server are replayed through the active
// weights and a candidate file, and the verdict must tell an identical
// candidate from a broken one.
func TestReplayAgainst(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.json")
	model := filepath.Join(dir, "model.lhmm")
	captures := filepath.Join(dir, "captures.jsonl")
	if err := cmdDatagen([]string{"-preset", "xiamen", "-scale", "0.02", "-trips", "30", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-data", data, "-model", model, "-dim", "8", "-epochs", "1", "-k", "8"}); err != nil {
		t.Fatal(err)
	}
	ds, err := loadDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	trips := ds.TestTrips()

	// serveTrips captures every test trip through a real server running
	// the weights at k candidates per point.
	serveTrips := func(capt *serve.Capture, k int) {
		active, err := loadModel(ds, model, k)
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry(func() (*lhmm.Model, error) { return active, nil })
		if err := reg.Reload(); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(reg, serve.Config{Capture: capt})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for _, tr := range trips {
			body, err := json.Marshal(serve.PointsRequest(tr.Cell))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("match: %d", resp.StatusCode)
			}
		}
	}
	capt, err := serve.OpenCaptureFile(captures)
	if err != nil {
		t.Fatal(err)
	}
	serveTrips(capt, 8)
	if err := capt.Close(); err != nil {
		t.Fatal(err)
	}

	// rewrite saves a copy of the model file with edit applied to every
	// tensor's weights, the node rows included.
	rewrite := func(name string, edit func(w []float64)) string {
		raw, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := nn.ReadParams(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		ps := pf.Params()
		for _, p := range ps {
			edit(p.W.W)
		}
		var buf bytes.Buffer
		if err := nn.SaveParams(&buf, ps); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	replay := func(against string) (string, error) {
		return captureStdout(t, func() error {
			return cmdReplay([]string{
				"-data", data, "-model", model, "-captures", captures,
				"-against", against, "-tolerate",
			})
		})
	}

	// The captures come from a server at k 8 and replay is told no k:
	// each record is reproduced on a model built with the k it carries.
	allIdentical := func(n int) string {
		return fmt.Sprintf("replayed %d captures: %d identical, 0 diffs, 0 failed", n, n)
	}
	t.Run("identical", func(t *testing.T) {
		out, err := replay(model)
		if err != nil {
			t.Fatalf("replay: %v\n%s", err, out)
		}
		if want := allIdentical(len(trips)); !strings.Contains(out, want) {
			t.Fatalf("captures did not reproduce, want %q:\n%s", want, out)
		}
		rep := againstReport(t, out)
		if rep.Verdict != shadow.VerdictReady || rep.AgreementRate != 1 || rep.DigestMatchRate != 1 {
			t.Fatalf("identical weights: verdict %q agreement %v digests %v, want ready 1 1",
				rep.Verdict, rep.AgreementRate, rep.DigestMatchRate)
		}
		if rep.Samples != int64(len(trips)) || rep.Disagreements != 0 {
			t.Fatalf("samples %d disagreements %d, want %d and 0", rep.Samples, rep.Disagreements, len(trips))
		}
	})

	// Every weight negated: values stay finite, so the file loads, but
	// rankings invert — a candidate that must not pass.
	t.Run("negated", func(t *testing.T) {
		negated := rewrite("negated.lhmm", func(w []float64) {
			for i := range w {
				w[i] = -w[i]
			}
		})
		out, err := replay(negated)
		if err != nil {
			t.Fatalf("replay under -tolerate: %v\n%s", err, out)
		}
		rep := againstReport(t, out)
		if rep.Verdict != shadow.VerdictNotReady || rep.AgreementRate >= 1 || rep.Disagreements == 0 {
			t.Fatalf("negated weights: verdict %q agreement %v disagreements %d, want not_ready <1 >0",
				rep.Verdict, rep.AgreementRate, rep.Disagreements)
		}
	})

	// A candidate trained at another dimension cannot run under the
	// active model's configuration; it is refused by tensor name.
	t.Run("dim-mismatch", func(t *testing.T) {
		other := filepath.Join(dir, "dim12.lhmm")
		if err := cmdTrain([]string{"-data", data, "-model", other, "-dim", "12", "-epochs", "1", "-k", "8"}); err != nil {
			t.Fatal(err)
		}
		out, err := replay(other)
		if err == nil || !strings.Contains(err.Error(), `"emb.nodes"`) {
			t.Fatalf("dim mismatch: err %v, want one naming \"emb.nodes\"\n%s", err, out)
		}
	})

	// One file holding records captured at two candidate counts: each
	// replays under its own, and a record naming none is refused.
	t.Run("mixed-k", func(t *testing.T) {
		mixed := filepath.Join(dir, "mixed.jsonl")
		capt, err := serve.OpenCaptureFile(mixed)
		if err != nil {
			t.Fatal(err)
		}
		serveTrips(capt, 8)
		serveTrips(capt, 5)
		if err := capt.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := captureStdout(t, func() error {
			return cmdReplay([]string{"-data", data, "-model", model, "-captures", mixed})
		})
		if want := allIdentical(2 * len(trips)); err != nil || !strings.Contains(out, want) {
			t.Fatalf("mixed-k captures: err %v, want %q:\n%s", err, want, out)
		}

		raw, err := os.ReadFile(mixed)
		if err != nil {
			t.Fatal(err)
		}
		noK := filepath.Join(dir, "nok.jsonl")
		if err := os.WriteFile(noK, bytes.Replace(raw, []byte(`"k":8`), []byte(`"k":0`), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdReplay([]string{"-data", data, "-model", model, "-captures", noK}); err == nil || !strings.Contains(err.Error(), "no k") {
			t.Fatalf("record without k: err %v, want it refused", err)
		}
	})
}

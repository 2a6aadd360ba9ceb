package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	lhmm "repro"
)

// smokeArgs shrinks the benchmark to a toy city, a 16-wide model and a
// twentieth of the work, so all four workloads and a traced run fit in
// a unit test.
func smokeArgs(outDir string, extra ...string) []string {
	return append([]string{"-scale", "0.05", "-dim", "16", "-seconds", "0.5", "-out", outDir}, extra...)
}

// resultLines parses the JSON result lines a run prints last.
func resultLines(t *testing.T, out string, want int) []resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < want {
		t.Fatalf("output has %d lines, want at least %d result lines", len(lines), want)
	}
	var res []resultLine
	for _, l := range lines[len(lines)-want:] {
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		res = append(res, r)
	}
	return res
}

func checkLine(t *testing.T, r resultLine, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		if m.Value != m.Value { // NaN
			t.Errorf("%s is NaN", d.Name)
		}
	}
}

// TestSmokeUntraced runs all four workloads twice, which also covers
// the spread table of -repeat.
func TestSmokeUntraced(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(smokeArgs(t.TempDir(), "-workload", "all", "-repeat", "2"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "spread over repeats") {
		t.Errorf("-repeat 2 printed no spread table:\n%s", out.String())
	}
	for i, r := range resultLines(t, out.String(), len(workloads)) {
		t.Run(workloads[i].Name, func(t *testing.T) {
			checkLine(t, r, endToEnd)
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value == 0 {
					t.Errorf("%s is 0", d.Name)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(smokeArgs(dir, "-workload", "stream_hot", "-trace", "1"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
	}
	checkLine(t, resultLines(t, out.String(), 1)[0], perLayer)
	spans, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var first spanRecord
	if err := json.Unmarshal(bytes.SplitN(spans, []byte("\n"), 2)[0], &first); err != nil || first.Name == "" {
		t.Errorf("span file: first record %+v, err %v", first, err)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclarationsMatchBenchmarkJSON holds the tables in metrics.go and
// BENCHMARK.json to each other, and both to the limits of the format.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", bf.RunSeconds, runSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the format", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), metrics.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d defined, at most 16 allowed", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d defined, at most 128 allowed", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
	}
}

// TestChecksTrip corrupts a good result in each way the checks are
// meant to catch.
func TestChecksTrip(t *testing.T) {
	ds, err := lhmm.GenerateDataset(lhmm.SyntheticMetro(0.05, 12))
	if err != nil {
		t.Fatal(err)
	}
	var trip *lhmm.Trip
	for _, tr := range ds.TestTrips() {
		if len(tr.Path) >= 4 {
			trip = tr
			break
		}
	}
	if trip == nil {
		t.Fatal("no trip with a path of four segments")
	}
	good := trip.Path
	if err := checkPath(ds.Net, good); err != nil {
		t.Fatalf("ground-truth path rejected: %v", err)
	}
	gap := append(append([]lhmm.SegmentID(nil), good[:1]...), good[2:]...)
	swapped := append([]lhmm.SegmentID(nil), good...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	unknown := append(append([]lhmm.SegmentID(nil), good...), lhmm.SegmentID(ds.Net.NumSegments()))
	for name, bad := range map[string][]lhmm.SegmentID{"empty": nil, "gap": gap, "swapped": swapped, "unknown segment": unknown} {
		if checkPath(ds.Net, bad) == nil {
			t.Errorf("%s path accepted", name)
		}
	}

	c := newChecker(ds.Net)
	c.result(trip, len(trip.Cell), good)
	c.result(trip, len(trip.Cell), good)
	if len(c.errors) != 0 {
		t.Fatalf("good result rejected: %v", c.errors)
	}
	c.result(trip, len(trip.Cell)-1, good)
	c.result(trip, len(trip.Cell), good[:len(good)-1])
	c.result(trip, len(trip.Cell), gap)
	if len(c.errors) != 4 { // point count, other path, broken path and other path
		t.Errorf("corrupted results raised %d errors, want 4: %v", len(c.errors), c.errors)
	}
}

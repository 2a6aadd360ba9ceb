// Command benchmark is the repository's yardstick: it sets up a lightly
// trained LHMM on the synthetic metro city, runs one of four named
// workloads, checks the outputs, and prints every end-to-end metric by
// name with unit, direction and regression bound. With -trace 1 it
// makes the separate traced run that yields the per-layer metrics.
// README.md in this directory has the tables and the sizing rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt := defaultOptions()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fs.Int("repeat", 1, "run the timed workloads this many times on fresh models and report the spread")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "workload seed: request order and open-loop arrival gaps")
	fs.Float64Var(&opt.Seconds, "seconds", opt.Seconds, "length of the measured phase the work counts are cut for")
	fs.Int64Var(&opt.DataSeed, "data-seed", opt.DataSeed, "offset added to the metro preset's seed and the model seed: another city, other trips, other weights")
	fs.Float64Var(&opt.Scale, "scale", opt.Scale, "metro preset scale")
	fs.IntVar(&opt.Dim, "dim", opt.Dim, "embedding dimension")
	fs.StringVar(&opt.OutDir, "out", opt.OutDir, "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if def, ok := workloadByName(*workload); ok {
		defs = []workloadDef{def}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if opt.Seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	sz := sizesFor(opt.Seconds)
	fmt.Fprintf(stdout, "benchmark: metro scale %g, %d trips, dim %d, data seed +%d, workload seed %d, sizes for %gs, GOMAXPROCS %d\n",
		opt.Scale, opt.Trips, opt.Dim, opt.DataSeed, opt.Seed, opt.Seconds, runtime.GOMAXPROCS(0))

	var ok bool
	var err error
	if *trace == 1 {
		ok, err = tracedRun(stdout, defs, opt, sz)
	} else {
		ok, err = untracedRun(stdout, defs, opt, sz, *repeat)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// settle returns the heap to a known state between set-up and a
// workload, so a run does not inherit another phase's garbage.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// liveHeapMB is the heap still reachable after a collection: what the
// workload left resident (dataset, model, router cache), without the
// garbage set-up and the run produced on the way.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// untracedSetups is how often an untraced run sets up; setup_s is the
// median, which one slow run cannot move. A traced run sets up once.
const untracedSetups = 3

// setUp runs set-up the given number of times and keeps the last
// fixture.
func setUp(stdout io.Writer, opt options, sz sizes, times int, rec *recorder) (*fixture, setupTimes, float64, error) {
	var fx *fixture
	var last setupTimes
	var totals []float64
	for i := 0; i < times; i++ {
		fx = nil
		settle()
		var err error
		fx, last, err = buildFixture(opt, sz, rec)
		if err != nil {
			return nil, last, 0, err
		}
		totals = append(totals, last.TotalS)
	}
	fmt.Fprintf(stdout, "set-up x%d: %d segments, %d towers, %d train / %d valid / %d test trips, weights %.1f MB; last: generate %.2fs train %.2fs save %.2fs new %.2fs load %.2fs; totals %.2fs\n",
		times, fx.ds.Net.NumSegments(), fx.ds.Cells.NumTowers(), len(fx.ds.TrainTrips()), len(fx.ds.ValidTrips()), len(fx.ds.TestTrips()),
		float64(len(fx.weights))/(1<<20), last.GenerateS, last.TrainS, last.SaveS, last.NewModelS, last.LoadS, totals)
	return fx, last, median(totals), nil
}

func untracedRun(stdout io.Writer, defs []workloadDef, opt options, sz sizes, repeat int) (bool, error) {
	fx, _, setupS, err := setUp(stdout, opt, sz, untracedSetups, nil)
	if err != nil {
		return false, err
	}
	allOK := true
	samples := map[string]map[string][]float64{} // workload -> metric -> one value per repeat
	var lines []resultLine
	for rep := 0; rep < repeat; rep++ {
		lines = lines[:0]
		for _, def := range defs {
			m, err := fx.freshModel()
			if err != nil {
				return false, err
			}
			settle()
			// serve.New turns the obs registry on for the whole process, as
			// lhmm-serve does. The batch workloads run with it off, as lhmm
			// match does, whatever ran before them.
			obs.Default.Disable()
			o, err := runWorkload(def, fx, m, opt, sz, nil)
			if err != nil {
				return false, fmt.Errorf("%s: %w", def.Name, err)
			}
			o.LiveHeapMB = liveHeapMB()
			runtime.KeepAlive(m) // the router's trees count as live
			values, line, digest := endToEndMetrics(o, setupS)
			printOutcome(stdout, o, values, digest)
			allOK = allOK && line.Correct
			lines = append(lines, line)
			if samples[def.Name] == nil {
				samples[def.Name] = map[string][]float64{}
			}
			for name, v := range values {
				samples[def.Name][name] = append(samples[def.Name][name], v)
			}
		}
	}
	if repeat > 1 {
		printSpread(stdout, defs, samples)
	}
	for _, line := range lines {
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// endToEndMetrics derives the end-to-end metrics of one workload run,
// and passes on the path digest computed with the accuracy.
func endToEndMetrics(o *outcome, setupS float64) (map[string]float64, resultLine, string) {
	precision, recall, digest := o.Check.accuracy()
	values := map[string]float64{
		"setup_s":          setupS,
		"points_per_s":     float64(o.Points) / o.WallS,
		"lat_p50_ms":       quantile(o.Lat, 0.5),
		"lat_tail_ms":      quantile(o.Lat, o.Def.TailQ),
		"slo_share":        o.sloShare(),
		"cpu_ms_per_point": o.CPUS * 1000 / float64(o.Points),
		"live_heap_mb":     o.LiveHeapMB,
		"path_precision":   precision,
		"path_recall":      recall,
	}
	return values, makeLine(o, endToEnd, values), digest
}

func makeLine(o *outcome, defs []metricDef, values map[string]float64) resultLine {
	attempted, failed := o.attempted()
	line := resultLine{
		Correct:   len(o.Check.errors) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return line
}

// printOutcome prints the accounting, the checks and the metric rows
// of one workload run.
func printOutcome(w io.Writer, o *outcome, values map[string]float64, digest string) {
	fmt.Fprintf(w, "\n== %s: %s\n", o.Def.Name, o.Def.Why)
	for _, p := range o.Phases {
		fmt.Fprintf(w, "   phase %-7s attempted %d, succeeded %d, failed %d, refused %d, wall %.2fs", p.Name, p.Attempted, p.OK, p.Failed, p.Refused, p.WallS)
		if p.Note != "" {
			fmt.Fprintf(w, " (%s)", p.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   latency samples %d (%s), lost %d; tail is p%g, limit %g ms; %d points timed\n",
		len(o.Lat), o.Def.Op, o.LatLost, o.Def.TailQ*100, o.Def.SLOMs, o.Points)
	fmt.Fprintf(w, "   latency ms: p50 %.2f, p75 %.2f, p90 %.2f, p95 %.2f, p99 %.2f, max %.2f\n",
		quantile(o.Lat, 0.5), quantile(o.Lat, 0.75), quantile(o.Lat, 0.9), quantile(o.Lat, 0.95), quantile(o.Lat, 0.99), quantile(o.Lat, 1))
	fmt.Fprintf(w, "   path_digest %s over %d trips\n", digest, len(o.Check.paths))
	if len(o.Check.errors) == 0 {
		fmt.Fprintln(w, "   checks: ok (match count per point, connected path, repeats identical, response parity)")
	}
	for _, e := range o.Check.errors {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", e)
	}
	printRows(w, o.Def.Name, endToEnd, values, len(o.Lat))
}

func printRows(w io.Writer, workload string, defs []metricDef, values map[string]float64, samples int) {
	for _, d := range defs {
		fmt.Fprintf(w, "   %-15s %-32s %14.4f %-6s better=%-6s", workload, d.Name, values[d.Name], d.Unit, d.Better)
		if d.Bound > 0 {
			fmt.Fprintf(w, " bound=%.0f%%", d.Bound*100)
		}
		if strings.HasPrefix(d.Name, "lat_") || d.Name == "slo_share" {
			fmt.Fprintf(w, " n=%d", samples)
		}
		fmt.Fprintln(w)
	}
}

// printSpread summarizes -repeat N: median, quartiles and their
// distance as a share of the median. A metric whose spread exceeds its
// bound cannot resolve a change of that size and is marked so.
func printSpread(w io.Writer, defs []workloadDef, samples map[string]map[string][]float64) {
	fmt.Fprintln(w, "\n== spread over repeats")
	for _, def := range defs {
		for _, d := range endToEnd {
			xs := samples[def.Name][d.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			mark := ""
			if d.Name != "setup_s" && spread > d.Bound {
				mark = "  UNRESOLVED: spread exceeds bound"
			}
			fmt.Fprintf(w, "   %-15s %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%  bound %2.0f%%  n=%d%s\n",
				def.Name, d.Name, med, q1, q3, spread*100, d.Bound*100, len(xs), mark)
		}
	}
}

// tracedRun makes the traced run: set-up once under spans, a shortened
// traced replay of each workload, the isolated arms, then the span
// file.
func tracedRun(stdout io.Writer, defs []workloadDef, opt options, sz sizes) (bool, error) {
	rec := newRecorder()
	fx, st, _, err := setUp(stdout, opt, sz, 1, rec)
	if err != nil {
		return false, err
	}
	allOK := true
	var lines []resultLine
	for _, def := range defs {
		values, o, err := perLayerMetrics(def, fx, st, opt, sz, rec)
		if err != nil {
			return false, fmt.Errorf("%s: %w", def.Name, err)
		}
		line := makeLine(o, perLayer, values)
		fmt.Fprintf(stdout, "\n== %s (traced replay, shortened)\n", def.Name)
		for _, e := range o.Check.errors {
			fmt.Fprintf(stdout, "   CHECK FAILED: %s\n", e)
		}
		printRows(stdout, def.Name, perLayer, values, 0)
		allOK = allOK && line.Correct
		lines = append(lines, line)
	}
	path := filepath.Join(opt.OutDir, "trace.jsonl")
	if err := rec.writeFile(path); err != nil {
		return false, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "\n%d spans written to %s\n", len(rec.spans), path)
	for _, line := range lines {
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// Command lhmm is the end-to-end CLI for the LHMM reproduction:
// generate synthetic datasets, train models, match trajectories, and
// evaluate methods.
//
// Usage:
//
//	lhmm datagen -preset hangzhou -scale 0.05 -trips 200 -out data.json
//	lhmm train   -data data.json -model model.lhmm
//	lhmm match   -data data.json -model model.lhmm -trip 3 [-geojson out.geojson]
//	lhmm eval    -data data.json -model model.lhmm [-methods LHMM,STM,THMM]
//
// All generation is deterministic given -seed.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	lhmm "repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/mrg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shadow"
	"repro/internal/synth"
	"repro/internal/traj"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "lhmm:", err)
		os.Exit(2)
	}
	if fp := faultinject.Armed(); len(fp) > 0 {
		fmt.Fprintf(os.Stderr, "lhmm: fault injection armed via %s: %s\n",
			faultinject.EnvVar, strings.Join(fp, ","))
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = cmdDatagen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "match":
		err = cmdMatch(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "sessions":
		err = cmdSessions(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhmm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lhmm <command> [flags]

commands:
  datagen   generate a synthetic paired cellular+GPS dataset
  train     train an LHMM on a dataset's training split
  match     match one test trajectory and report metrics
  eval      evaluate methods on the test split
  replay    re-run requests from an lhmm-serve capture file and diff outputs
  sessions  durable-session tools: 'sessions inspect' summarizes a
            snapshot file from an lhmm-serve -checkpoint-dir store

observability flags (every command):
  -metrics FILE     dump telemetry counters/histograms as JSON on exit ('-' for stderr)
  -log-level LEVEL  structured logs on stderr: debug|info|warn|error
  -debug-addr ADDR  serve /debug/pprof, /debug/vars, /metrics while running

robustness flags (match, eval):
  -on-break POLICY  dead-point policy: error|skip|split
  -sanitize MODE    input validation: strict|drop|off

fault injection (chaos testing): set LHMM_FAULTS=name[:N],... to arm
failpoints, e.g. LHMM_FAULTS=hmm.candidates.empty:7`)
}

// parseWithObs parses the flag set with the shared observability flags
// bound, applies them, and returns the cleanup to run on exit.
func parseWithObs(fs *flag.FlagSet, args []string) (func(), error) {
	return parseApply(fs, obs.BindFlags(fs), args)
}

// parseApply is parseWithObs over observability flags the caller bound.
func parseApply(fs *flag.FlagSet, of *obs.Flags, args []string) (func(), error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cleanup, err := of.Apply()
	if err != nil {
		return nil, err
	}
	return func() {
		if err := cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "lhmm: obs:", err)
		}
	}, nil
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	preset := fs.String("preset", "hangzhou", "dataset preset: hangzhou, xiamen, or metro (~100k-segment network at scale 1)")
	scale := fs.Float64("scale", 0.05, "city scale in (0, 1]")
	trips := fs.Int("trips", 200, "number of trips to simulate")
	seed := fs.Int64("seed", 0, "override the preset RNG seed (0 keeps it)")
	out := fs.String("out", "dataset.json", "output file")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()
	var cfg synth.DatasetConfig
	switch *preset {
	case "xiamen":
		cfg = lhmm.SyntheticXiamen(*scale, *trips)
	case "hangzhou":
		cfg = lhmm.SyntheticHangzhou(*scale, *trips)
	case "metro":
		cfg = lhmm.SyntheticMetro(*scale, *trips)
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	ds, err := lhmm.GenerateDataset(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traj.WriteDataset(f, ds); err != nil {
		return err
	}
	st := ds.ComputeStats()
	fmt.Printf("wrote %s: %d road segments, %d intersections, %d towers, %d trips (%d/%d/%d split)\n",
		*out, st.RoadSegments, st.Intersections, ds.Cells.NumTowers(), len(ds.Trips),
		len(ds.Train), len(ds.Valid), len(ds.Test))
	fmt.Printf("cellular: %.0f pts/trajectory, avg interval %.0fs, avg sampling distance %.0fm\n",
		st.CellPointsPerTraj, st.AvgCellIntervalSec, st.AvgCellSampleDistM)
	return nil
}

// loadDataset reads a dataset file; "-" reads stdin, so datasets can
// be piped between tools without touching disk.
func loadDataset(path string) (*traj.Dataset, error) {
	if path == "-" {
		return traj.ReadDataset(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traj.ReadDataset(f)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "dataset.json", "dataset file from `lhmm datagen`")
	out := fs.String("model", "model.lhmm", "output model weights file")
	dim := fs.Int("dim", 32, "embedding dimension")
	epochs := fs.Int("epochs", 4, "phase-1 training epochs")
	k := fs.Int("k", 30, "candidates per point")
	seed := fs.Int64("seed", 1, "training seed")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	cfg := lhmm.DefaultConfig()
	cfg.Dim = *dim
	cfg.Epochs = *epochs
	cfg.K = *k
	cfg.Seed = *seed
	model, err := lhmm.Train(ds, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained LHMM (dim %d, %d epochs) on %d trips; weights -> %s\n",
		*dim, *epochs, len(ds.Train), *out)
	return nil
}

// loadModel restores the saved model at path over ds; everything but
// k is read from the file or defaulted.
func loadModel(ds *traj.Dataset, path string, k int) (*lhmm.Model, error) {
	cfg := lhmm.DefaultConfig()
	cfg.K = k
	return lhmm.LoadModel(ds, path, cfg)
}

func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	data := fs.String("data", "dataset.json", "dataset file")
	modelPath := fs.String("model", "model.lhmm", "model weights file")
	trip := fs.Int("trip", 0, "test-trip index to match")
	k := fs.Int("k", 30, "candidates per point")
	trajPath := fs.String("traj", "", "match a trajectory from a MatchRequest JSON file instead of -trip ('-' for stdin)")
	jsonOut := fs.Bool("json", false, "write the result as MatchResponse JSON on stdout (the lhmm-serve wire format)")
	dumpTraj := fs.String("dump-traj", "", "write the -trip trajectory as MatchRequest JSON and exit ('-' for stdout; no model needed)")
	geojson := fs.String("geojson", "", "optional GeoJSON output file")
	traceOut := fs.String("trace", "", "write the per-trajectory match trace as JSON ('-' for stdout; with -json it is embedded in the response instead)")
	explain := fs.Bool("explain", false, "collect the per-decision explanation (top-k candidates, margins, chosen routes); with -json it is embedded in the response, matching POST /v1/match?explain=1")
	onBreak := fs.String("on-break", "error", "dead-point policy: error|skip|split")
	sanitize := fs.String("sanitize", "strict", "input validation: strict|drop|off")
	cleanup, err := parseApply(fs, obs.BindTraceFlags(fs), args)
	if err != nil {
		return err
	}
	defer cleanup()
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	if *dumpTraj != "" {
		return dumpTrajectory(ds, *trip, *dumpTraj)
	}
	model, err := loadModel(ds, *modelPath, *k)
	if err != nil {
		return err
	}
	model.Cfg.Trace = *traceOut != ""
	model.Cfg.Explain = *explain
	if model.Cfg.OnBreak, err = lhmm.ParseBreakPolicy(*onBreak); err != nil {
		return err
	}
	if model.Cfg.Sanitize, err = lhmm.ParseSanitizeMode(*sanitize); err != nil {
		return err
	}

	// The trajectory comes either from a MatchRequest JSON file (the
	// lhmm-serve wire format; no ground truth, so no accuracy metrics)
	// or from a test trip of the dataset.
	var ct traj.CellTrajectory
	var tr *traj.Trip
	if *trajPath != "" {
		req, err := readMatchRequest(*trajPath)
		if err != nil {
			return err
		}
		if req.Options != nil {
			if o := req.Options.OnBreak; o != "" {
				if model.Cfg.OnBreak, err = lhmm.ParseBreakPolicy(o); err != nil {
					return err
				}
			}
			if sm := req.Options.Sanitize; sm != "" {
				if model.Cfg.Sanitize, err = lhmm.ParseSanitizeMode(sm); err != nil {
					return err
				}
			}
		}
		if ct, err = req.Trajectory(ds.Cells); err != nil {
			return err
		}
	} else {
		tests := ds.TestTrips()
		if *trip < 0 || *trip >= len(tests) {
			return fmt.Errorf("trip index %d out of range (have %d test trips)", *trip, len(tests))
		}
		tr = tests[*trip]
		ct = tr.Cell
	}
	// One root span per CLI match when tracing is on (-trace-out): the
	// same span tree a traced server request produces, minus the HTTP
	// layer. sp is nil, and every call on it a no-op, when it is off.
	sp := obs.DefaultTracer.StartSpan("match", "", "")
	sp.SetAttr("points", len(ct))
	res, err := model.MatchContext(obs.ContextWithSpan(context.Background(), sp), ct)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if err != nil {
		return err
	}
	if *traceOut != "" && res.Trace != nil && !*jsonOut {
		data, err := json.MarshalIndent(res.Trace, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *traceOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		} else {
			fmt.Printf("match trace -> %s\n", *traceOut)
		}
	}
	if *jsonOut {
		// The exact bytes lhmm-serve answers for this trajectory: same
		// struct, same encoder. `diff` against a server response is the
		// online/offline parity check. With -trace and/or -explain the
		// output is the same leading fields plus the appended trace and
		// explain blocks, matching POST /v1/match?debug=1&explain=1.
		enc := json.NewEncoder(os.Stdout)
		if *explain || *traceOut != "" {
			return enc.Encode(serve.ExplainMatchResponse{MatchResponse: serve.ResultJSON(res), Trace: res.Trace, Explain: res.Explain})
		}
		return enc.Encode(serve.ResultJSON(res))
	}
	if tr != nil {
		pm := lhmm.EvalPath(ds.Net, res.Path, tr.Path, eval.CMFCorridor)
		fmt.Printf("trip %d: %d cellular points -> %d road segments\n", tr.ID, len(tr.Cell), len(res.Path))
		fmt.Printf("precision %.3f  recall %.3f  RMF %.3f  CMF50 %.3f\n",
			pm.Precision, pm.Recall, pm.RMF, pm.CMF)
	} else {
		fmt.Printf("trajectory: %d cellular points -> %d road segments\n", len(ct), len(res.Path))
	}
	skips := 0
	for _, s := range res.Skipped {
		if s {
			skips++
		}
	}
	fmt.Printf("shortcut skips: %d of %d points\n", skips, len(res.Skipped))
	if d := res.Sanitize.Dropped(); d > 0 {
		fmt.Printf("sanitized: dropped %d malformed points (%d bad coords, %d bad timestamps)\n",
			d, res.Sanitize.BadCoords, res.Sanitize.BadTimes)
	}
	deadPts := 0
	for _, dd := range res.Dead {
		if dd {
			deadPts++
		}
	}
	if deadPts > 0 {
		fmt.Printf("dead points (no candidates): %d of %d\n", deadPts, len(res.Dead))
	}
	for _, g := range res.Gaps {
		fmt.Printf("gap: points %d -> %d (%s)\n", g.From, g.To, g.Reason)
	}
	if res.Degraded > 0 {
		fmt.Printf("degraded scoring events (classical fallback): %d\n", res.Degraded)
	}
	if ex := res.Explain; ex != nil {
		decisions := 0
		for i := range ex.Points {
			if !ex.Points[i].Dead {
				decisions++
			}
		}
		fmt.Printf("explain: %d decisions, %d low-margin (< %.3f nats)\n",
			decisions, ex.LowMarginDecisions, ex.MarginThreshold)
		for i := range ex.Points {
			ch := ex.Points[i].Chosen
			if ch == nil || !ch.LowMargin {
				continue
			}
			fmt.Printf("  point %d: seg %d margin %.4f (prev seg %d)\n",
				ex.Points[i].Index, ch.Seg, ch.Margin, ch.PrevSeg)
		}
	}
	if *geojson != "" && tr != nil {
		cs := caseFor(ds, tr, res.Path)
		data, err := cs.GeoJSON(geo.Anchor{Origin: geo.LatLon{Lat: 30.25, Lon: 120.17}})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*geojson, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("geometry -> %s\n", *geojson)
	}
	return nil
}

// dumpTrajectory writes the test trip's cellular trajectory as
// MatchRequest JSON — the body format of POST /v1/match and of
// `lhmm match -traj`.
func dumpTrajectory(ds *traj.Dataset, trip int, out string) error {
	tests := ds.TestTrips()
	if trip < 0 || trip >= len(tests) {
		return fmt.Errorf("trip index %d out of range (have %d test trips)", trip, len(tests))
	}
	req := serve.PointsRequest(tests[trip].Cell)
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trajectory (%d points) -> %s\n", len(req.Points), out)
	return nil
}

// readMatchRequest reads a MatchRequest JSON file ("-" for stdin).
func readMatchRequest(path string) (*serve.MatchRequest, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var req serve.MatchRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("reading trajectory %s: %w", path, err)
	}
	return &req, nil
}

// cmdReplay re-runs requests from an lhmm-serve capture file against a
// model and compares the re-encoded responses with the captured
// digests. Identical digests prove the serving stack still answers
// byte-for-byte what it answered at capture time — the regression
// check for model rollouts and scoring refactors. With -against, every
// record is additionally replayed through a candidate model and the
// decision-level agreement report with its promotion verdict is
// printed: the check to run, on captured traffic, before a retrained
// model replaces the serving one.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	data := fs.String("data", "dataset.json", "dataset file")
	modelPath := fs.String("model", "model.lhmm", "model weights file")
	capturesPath := fs.String("captures", "-", "capture JSONL file from lhmm-serve -capture-out ('-' for stdin)")
	against := fs.String("against", "", "candidate model weights: replay through both models and print the agreement report and promotion verdict")
	tolerate := fs.Bool("tolerate", false, "report diffs but exit 0 (candidate-comparison mode)")
	verbose := fs.Bool("v", false, "print one line per replayed record")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if *capturesPath != "-" {
		f, err := os.Open(*capturesPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	recs, err := serve.ReadCaptures(in)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no capture records in %s", *capturesPath)
	}
	// One model per candidate count the file names: the pool sizes derive
	// from K when a model is built, so a record reproduces only on a model
	// built with the K it was captured under.
	models := map[int]*lhmm.Model{}
	candModels := map[int]*lhmm.Model{}
	for i := range recs {
		k := recs[i].Config.K
		if k <= 0 {
			return fmt.Errorf("capture %s: no k in its config", captureID(recs, i))
		}
		if models[k] != nil {
			continue
		}
		if models[k], err = loadModel(ds, *modelPath, k); err != nil {
			return err
		}
		if *against == "" {
			continue
		}
		if candModels[k], err = loadModel(ds, *against, k); err != nil {
			return fmt.Errorf("against model: %w", err)
		}
		// The candidate runs under the active model's configuration, so
		// only the weights may differ, not their shapes.
		if cd, d := candModels[k].Cfg.Dim, models[k].Cfg.Dim; cd != d {
			return fmt.Errorf("against model: %q has %d columns in %s, %d in %s",
				core.NodesParam, cd, *against, d, *modelPath)
		}
	}
	var stats *shadow.Stats
	if *against != "" {
		stats = shadow.NewStats()
	}

	identical, diffs, failed := 0, 0, 0
	for i := range recs {
		rec := &recs[i]
		id := captureID(recs, i)
		// Replay under the captured effective configuration on a private
		// model copy (the capture's Config already folds in any
		// per-request overrides, so request options are not re-applied).
		mm := *models[rec.Config.K]
		if rec.Config.OnBreak != "" {
			if mm.Cfg.OnBreak, err = lhmm.ParseBreakPolicy(rec.Config.OnBreak); err != nil {
				return fmt.Errorf("capture %s: %w", id, err)
			}
		}
		if rec.Config.Sanitize != "" {
			if mm.Cfg.Sanitize, err = lhmm.ParseSanitizeMode(rec.Config.Sanitize); err != nil {
				return fmt.Errorf("capture %s: %w", id, err)
			}
		}
		mm.Cfg.Shortcuts = rec.Config.Shortcuts
		if stats != nil {
			// Explain artifacts feed the margin deltas; they are not part
			// of the wire encoding, so the digest check is unaffected.
			mm.Cfg.Explain = true
		}
		ct, err := rec.Request.Trajectory(ds.Cells)
		if err != nil {
			failed++
			fmt.Printf("replay %s: bad request: %v\n", id, err)
			continue
		}
		res, err := mm.Match(ct)
		if err != nil {
			failed++
			fmt.Printf("replay %s: match failed: %v\n", id, err)
			continue
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(serve.ResultJSON(res)); err != nil {
			return err
		}
		if stats != nil {
			// Candidate replay under the same captured effective config —
			// only the weights differ.
			cm := *candModels[rec.Config.K]
			cm.Cfg = mm.Cfg
			cRes, cErr := cm.Match(ct)
			var cmp shadow.Comparison
			if cErr != nil {
				cmp = shadow.Comparison{
					Points:         len(res.Matched),
					ActiveDegraded: res.Degraded > 0,
					ActiveGapped:   len(res.Gaps) > 0,
					CandErr:        cErr,
				}
			} else {
				var cbuf bytes.Buffer
				if err := json.NewEncoder(&cbuf).Encode(serve.ResultJSON(cRes)); err != nil {
					return err
				}
				cmp = shadow.Compare(res, cRes, buf.Bytes(), cbuf.Bytes())
			}
			stats.Record(&cmp)
			if *verbose && cmp.Disagrees() {
				fmt.Printf("replay %s: candidate disagrees (%d/%d points agreed)\n",
					id, cmp.Agreed, cmp.Points)
			}
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if got == rec.Response.SHA256 {
			identical++
			if *verbose {
				fmt.Printf("replay %s: identical (%d bytes)\n", id, buf.Len())
			}
			continue
		}
		diffs++
		fmt.Printf("replay %s: DIFF captured %s (%d bytes, score %.6g) vs replayed %s (%d bytes, score %.6g)\n",
			id, shortHash(rec.Response.SHA256), rec.Response.Bytes, rec.Response.Score,
			shortHash(got), buf.Len(), res.Score)
	}
	fmt.Printf("replayed %d captures: %d identical, %d diffs, %d failed\n",
		len(recs), identical, diffs, failed)
	if stats != nil {
		// An offline run has exactly the capture's records, so one is
		// enough for a verdict; the agreement floor and the regression
		// ceiling are the package's.
		rep := stats.Report(shadow.Thresholds{MinSamples: 1})
		rep.ModelPath = *against
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("shadow report (%s vs %s):\n%s\n", *modelPath, *against, out)
	}
	if (diffs > 0 || failed > 0) && !*tolerate {
		return fmt.Errorf("%d of %d captures did not reproduce", diffs+failed, len(recs))
	}
	return nil
}

// captureID names record i of a capture file: its own id, or its
// position when it has none.
func captureID(recs []serve.CaptureRecord, i int) string {
	if id := recs[i].ID; id != "" {
		return id
	}
	return fmt.Sprintf("#%d", i+1)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func caseFor(ds *traj.Dataset, tr *traj.Trip, path []lhmm.SegmentID) *eval.CaseStudy {
	return &eval.CaseStudy{
		TripID:  tr.ID,
		Truth:   tr.PathGeom,
		Cell:    tr.Cell.Positions(),
		Matched: map[string]geo.Polyline{"LHMM": metrics.PathGeometry(ds.Net, path)},
		CMF:     map[string]float64{"LHMM": lhmm.EvalPath(ds.Net, path, tr.Path, eval.CMFCorridor).CMF},
	}
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	data := fs.String("data", "dataset.json", "dataset file")
	modelPath := fs.String("model", "", "LHMM weights (omit to evaluate baselines only)")
	methods := fs.String("methods", "LHMM,STM,THMM", "comma-separated methods (Table II names)")
	k := fs.Int("k", 30, "candidates per point")
	onBreak := fs.String("on-break", "error", "dead-point policy: error|skip|split")
	sanitize := fs.String("sanitize", "strict", "input validation: strict|drop|off")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()
	breakPolicy, err := lhmm.ParseBreakPolicy(*onBreak)
	if err != nil {
		return err
	}
	sanitizeMode, err := lhmm.ParseSanitizeMode(*sanitize)
	if err != nil {
		return err
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}

	// The non-learned methods are built as lhmm-bench builds them, with
	// the baselines' default configuration; seq2seq baselines need
	// training and are run by lhmm-bench only.
	router := lhmm.NewRouter(ds.Net)
	graph := func() (*mrg.Graph, error) { return mrg.BuildGraph(ds.Net, ds.Cells, ds.TrainTrips()) }
	var rows []eval.Row
	for _, name := range strings.Split(*methods, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		var m lhmm.Method
		if name == "LHMM" {
			if *modelPath == "" {
				return fmt.Errorf("method LHMM requires -model")
			}
			model, err := loadModel(ds, *modelPath, *k)
			if err != nil {
				return err
			}
			model.Cfg.OnBreak = breakPolicy
			model.Cfg.Sanitize = sanitizeMode
			m = lhmm.AsMethod("LHMM", model)
		} else {
			m, err = eval.NewBaseline(name, ds, router, graph, baselines.CommonConfig{})
			if err != nil {
				return err
			}
		}
		summary, _ := eval.EvaluateMethod(ds, m, ds.TestTrips(), eval.CMFCorridor)
		rows = append(rows, eval.Row{Method: name, Summary: summary})
	}
	fmt.Print(eval.FormatRows(fmt.Sprintf("evaluation on %s (%d test trips)", ds.Name, len(ds.Test)), rows))
	return nil
}

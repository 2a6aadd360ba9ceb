package main

import (
	"encoding/json"
	"fmt"
	"time"

	lhmm "repro"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
)

// replayShare is how much of an untraced workload the traced replay
// repeats; the replay is for counters and stage shares, not timings.
const replayShare = 0.3

// perLayerMetrics makes the traced part of a run for one workload: a
// shortened replay of the workload under spans with matcher tracing
// and the obs counters on, then the isolated arms, which time each
// layer from outside through its public functions on matcher-shaped
// inputs harvested from the hot trips.
func perLayerMetrics(def workloadDef, fx *fixture, st setupTimes, opt options, sz sizes, rec *recorder) (map[string]float64, *outcome, error) {
	obs.Default.Enable()
	m, err := fx.freshModel()
	if err != nil {
		return nil, nil, err
	}
	traced := *m // shares router, graph and embeddings; only Cfg differs
	traced.Cfg.Trace = true

	short := sizesFor(opt.Seconds * replayShare)
	sfx := *fx
	sfx.dist = fx.dist[:short.DistinctTrips]
	settle()
	o, err := runWorkload(def, &sfx, &traced, opt, short, rec)
	if err != nil {
		return nil, nil, err
	}

	v := map[string]float64{
		"synth.generate_s":        st.GenerateS,
		"core.train_s":            st.TrainS,
		"core.new_model_s":        st.NewModelS,
		"core.load_s":             st.LoadS,
		"core.weights_mb":         float64(len(fx.weights)) / (1 << 20),
		"roadnet.cache_hit_ratio": 1,
		"roadnet.cache_evictions": float64(o.CacheEvictions),
	}
	if lookups := o.CacheHits + o.CacheMisses; lookups > 0 {
		v["roadnet.cache_hit_ratio"] = float64(o.CacheHits) / float64(lookups)
	}
	v["roadnet.tree_builds_per_point"] = float64(o.CacheMisses) / float64(o.Points)

	arms := rec.start("arms", nil, "")
	defer arms.end()
	// The arms check their results apart from the replay: stream_hot's
	// causal paths may differ from the Match paths the arms produce.
	a := &armRun{fx: fx, m: m, traced: &traced, rec: rec, root: arms, check: newChecker(fx.ds.Net)}
	defer func() {
		for _, e := range a.check.errors {
			o.Check.fail("%s", e)
		}
	}()

	// Every arm below wants the hot set's trees in the router.
	for _, trip := range fx.hot {
		if _, err := m.Match(trip.Cell); err != nil {
			return nil, nil, fmt.Errorf("warm trip %d: %w", trip.ID, err)
		}
	}

	inprocMs, tracedMs, stages := a.matchInProcess()
	v["core.match_inproc_p50_ms"] = inprocMs
	v["trace.overhead_share"] = (tracedMs - inprocMs) / inprocMs
	if o.Stages.TotalS > 0 {
		stages = o.Stages // the workload's own matches, where it makes them in process
	}
	v["core.stage.candidates_share"] = stages.CandidatesS / stages.TotalS
	v["core.stage.transition_share"] = stages.TransitionS / stages.TotalS
	v["core.stage.shortcuts_share"] = stages.ShortcutsS / stages.TotalS
	v["core.stage.backtrack_share"] = stages.BacktrackS / stages.TotalS
	v["core.stage.expand_share"] = stages.ExpandS / stages.TotalS

	pushUs, err := a.streamInProcess()
	if err != nil {
		return nil, nil, err
	}
	v["core.stream_push_inproc_p50_us"] = pushUs

	if err := a.serveArms(v, opt, short, inprocMs, pushUs); err != nil {
		return nil, nil, err
	}
	if err := a.codecArm(v); err != nil {
		return nil, nil, err
	}
	a.roadnetArms(v)
	a.pointArms(v)
	a.nnArms(v)
	if err := a.hmmArm(v); err != nil {
		return nil, nil, err
	}
	return v, o, nil
}

// armRun is the shared state of the isolated arms.
type armRun struct {
	fx     *fixture
	m      *lhmm.Model // hot set warm
	traced *lhmm.Model // same model with Cfg.Trace set
	rec    *recorder
	root   *span
	check  *checker
}

// matchInProcess alternates untraced and traced passes of Model.Match
// over the hot set and returns both per-trip medians and the traced
// passes' stage sums.
func (a *armRun) matchInProcess() (untracedMs, tracedMs float64, stages obs.StageTimings) {
	sp := a.rec.start("arm core.Match", a.root, "")
	defer sp.end()
	var plain, withTrace []float64
	for pass := 0; pass < 2; pass++ {
		for _, trip := range a.fx.hot {
			t0 := time.Now()
			res, err := a.m.Match(trip.Cell)
			if err != nil {
				a.check.fail("arm: trip %d: %v", trip.ID, err)
				continue
			}
			plain = append(plain, ms(time.Since(t0)))
			a.check.result(trip, len(res.Matched), res.Path)
		}
		for _, trip := range a.fx.hot {
			t0 := time.Now()
			res, err := a.traced.Match(trip.Cell)
			if err != nil {
				a.check.fail("arm: trip %d traced: %v", trip.ID, err)
				continue
			}
			withTrace = append(withTrace, ms(time.Since(t0)))
			addStages(&stages, res.Trace.Stages)
		}
	}
	return median(plain), median(withTrace), stages
}

// streamInProcess pushes the hot trips through Model.NewStream(2) and
// returns the median push time in microseconds.
func (a *armRun) streamInProcess() (float64, error) {
	sp := a.rec.start("arm core.NewStream.Push", a.root, "")
	defer sp.end()
	var lat []float64
	for pass := 0; pass < 2; pass++ {
		for _, trip := range a.fx.hot {
			sm := a.m.NewStream(2)
			for _, p := range trip.Cell {
				t0 := time.Now()
				_, err := sm.Push(p)
				d := time.Since(t0)
				if err != nil {
					return 0, fmt.Errorf("stream trip %d: %w", trip.ID, err)
				}
				if pass > 0 { // the first pass builds trees the causal path asks for
					lat = append(lat, us(d))
				}
			}
			sm.Flush()
		}
	}
	return median(lat), nil
}

// serveArms measures what HTTP adds: one client against the server,
// minus the in-process median on the same inputs, for /v1/match and
// for session pushes; and a shortened serve_hot run for shedding and
// open-loop generator lateness.
func (a *armRun) serveArms(v map[string]float64, opt options, short sizes, inprocMs, pushUs float64) error {
	sp := a.rec.start("arm serve", a.root, "")
	defer sp.end()
	one := sizes{Clients: 1, ClosedPerClient: 2 * len(a.fx.hot), SessionsPerDevice: len(a.fx.hot)}
	so := &outcome{Def: serveHot, Check: a.check}
	if err := runServe(so, a.fx, a.m, opt, one, a.rec, sp); err != nil {
		return err
	}
	v["serve.overhead_p50_ms"] = median(so.ClosedLat) - inprocMs

	// The causal path may choose other roads than Match does, so its
	// repeats are held to their own first paths.
	st := &outcome{Def: streamHot, Check: newChecker(a.fx.ds.Net)}
	if err := runStream(st, a.fx, a.m, opt, one, a.rec, sp); err != nil {
		return err
	}
	for _, e := range st.Check.errors {
		a.check.fail("arm stream: %s", e)
	}
	v["serve.push_overhead_p50_us"] = median(st.PushLat)*1000 - pushUs

	probe := &outcome{Def: serveHot, Check: a.check}
	if err := runServe(probe, a.fx, a.m, opt, short, a.rec, sp); err != nil {
		return err
	}
	attempted, refused := 0, 0
	for _, p := range probe.Phases {
		attempted += p.Attempted
		refused += p.Refused
	}
	v["serve.shed_share"] = float64(refused) / float64(attempted)
	v["loadgen.send_lag_p90_ms"] = quantile(probe.SendLag, 0.9)
	return nil
}

// codecArm times the request decode and response encode the server
// does per /v1/match, and the bytes both bodies put on the wire.
func (a *armRun) codecArm(v map[string]float64) error {
	sp := a.rec.start("arm serve codec", a.root, "")
	defer sp.end()
	const reps = 20
	var decode, encode time.Duration
	var bytesOnWire, points int
	for _, trip := range a.fx.hot {
		res, err := a.m.Match(trip.Cell)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.PointsRequest(trip.Cell))
		if err != nil {
			return err
		}
		var out []byte
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			var req serve.MatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			if _, err := req.Trajectory(a.fx.ds.Cells); err != nil {
				return err
			}
			t1 := time.Now()
			if out, err = json.Marshal(serve.ResultJSON(res)); err != nil {
				return err
			}
			decode += t1.Sub(t0)
			encode += time.Since(t1)
		}
		bytesOnWire += len(body) + len(out)
		points += len(trip.Cell)
	}
	n := float64(reps * len(a.fx.hot))
	v["serve.decode_us_per_req"] = us(decode) / n
	v["serve.encode_us_per_req"] = us(encode) / n
	v["serve.body_bytes_per_point"] = float64(bytesOnWire) / float64(points)
	return nil
}

// step is one Viterbi-shaped unit of routing work: the candidate pools
// of two consecutive trajectory points.
type step struct{ from, to []roadnet.PointOnRoad }

// harvestSteps takes the k nearest segments of consecutive hot-trip
// points as candidate pools, the way the matcher's transition step
// fans out.
func (a *armRun) harvestSteps(k, limit int) []step {
	net := a.fx.ds.Net
	pool := func(p lhmm.CellPoint) []roadnet.PointOnRoad {
		segs := net.SegmentsNear(p.P, k)
		out := make([]roadnet.PointOnRoad, len(segs))
		for i, s := range segs {
			_, frac := net.Project(s, p.P)
			out[i] = roadnet.PointOnRoad{Seg: s, Frac: frac}
		}
		return out
	}
	var steps []step
	for _, trip := range a.fx.hot {
		for i := 0; i+1 < len(trip.Cell) && len(steps) < limit; i += 3 {
			steps = append(steps, step{pool(trip.Cell[i]), pool(trip.Cell[i+1])})
		}
	}
	return steps
}

// roadnetArms times a cold shortest-path tree build per new source on
// a fresh router, and k x k RouteDist and RouteBetween fan-outs on a
// router that already holds every tree they need.
func (a *armRun) roadnetArms(v map[string]float64) {
	sp := a.rec.start("arm roadnet", a.root, "")
	defer sp.end()
	net := a.fx.ds.Net
	steps := a.harvestSteps(a.m.Cfg.K, 16)

	cold := lhmm.NewRouter(net)
	seen := map[lhmm.NodeID]bool{}
	var build []float64
	for _, st := range steps {
		for _, p := range st.from {
			src := net.Segment(p.Seg).To
			if seen[src] || len(build) >= 64 {
				continue
			}
			seen[src] = true
			dst := net.Segment(st.to[0].Seg).From
			if dst == src {
				continue // NodeDist answers without a tree
			}
			t0 := time.Now()
			cold.NodeDist(src, dst)
			build = append(build, ms(time.Since(t0)))
		}
	}
	v["roadnet.tree_build_ms"] = median(build)

	hot := a.m.Router
	fanOut := func(route func(from, to roadnet.PointOnRoad)) float64 {
		pairs := 0
		t0 := time.Now()
		for _, st := range steps {
			for _, f := range st.from {
				for _, t := range st.to {
					route(f, t)
					pairs++
				}
			}
		}
		return us(time.Since(t0)) / float64(pairs)
	}
	dist := func(f, t roadnet.PointOnRoad) { hot.RouteDist(f, t) }
	fanOut(dist) // builds whatever trees the nearest-segment pools add
	v["roadnet.route_dist_hot_us"] = fanOut(dist)
	v["roadnet.route_between_hot_us"] = fanOut(func(f, t roadnet.PointOnRoad) { hot.RouteBetween(f, t) })
}

// pointArms times the per-point work outside scoring: the spatial
// lookup behind the candidate pool, and input sanitization.
func (a *armRun) pointArms(v map[string]float64) {
	sp := a.rec.start("arm spatial+traj", a.root, "")
	defer sp.end()
	net := a.fx.ds.Net
	poolSize := 3 * a.m.Cfg.K // core's default PoolSize
	const reps = 20
	points := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, trip := range a.fx.hot {
			for _, p := range trip.Cell {
				net.SegmentsNear(p.P, poolSize)
				points++
			}
		}
	}
	v["spatial.nearest_us_per_point"] = us(time.Since(t0)) / float64(points)

	points = 0
	t0 = time.Now()
	for r := 0; r < 10*reps; r++ {
		for _, trip := range a.fx.hot {
			if _, _, err := traj.Sanitize(trip.Cell, traj.SanitizeStrict); err != nil {
				a.check.fail("sanitize trip %d: %v", trip.ID, err)
			}
			points += len(trip.Cell)
		}
	}
	v["traj.sanitize_us_per_point"] = us(time.Since(t0)) / float64(points)
}

// nnArms times the four batched inference kernels on matrices of the
// matcher's shapes, filled from the model's frozen embeddings.
func (a *armRun) nnArms(v map[string]float64) {
	sp := a.rec.start("arm nn", a.root, "")
	defer sp.end()
	m, emb := a.m, a.m.Embeddings()
	d := m.Cfg.Dim
	k := m.Cfg.K
	fill := func(rows, cols int) *nn.Mat {
		x := nn.NewMat(rows, cols)
		for i := range x.W {
			x.W[i] = emb.W[i%len(emb.W)]
		}
		return x
	}
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	timeRows := func(rows int, f func()) float64 {
		const reps = 30
		f() // sizes the workspace slabs
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		return us(time.Since(t0)) / float64(reps*rows)
	}

	pool := fill(4*k, 2*d) // a candidate pool: 3k nearest plus co-occurring roads
	v["nn.obs_mlp_us_per_row"] = timeRows(pool.R, func() { ws.Reset(); m.ObsMLP.ApplyWS(ws, pool) })

	pairs := fill(k*k, 3) // one Viterbi step's fan-out
	v["nn.trans_fuse_us_per_row"] = timeRows(pairs.R, func() { ws.Reset(); m.TransFuse.ApplyWS(ws, pairs) })

	n := 0
	for _, trip := range a.fx.hot {
		n += len(trip.Cell)
	}
	n /= len(a.fx.hot)
	points := fill(n, d) // one trajectory's point embeddings
	v["nn.selfattn_us_per_point"] = timeRows(n, func() { ws.Reset(); m.ObsAtt.SelfApplyAllWS(ws, points) })

	segs := fill(8*k, d) // the distinct route segments of one step
	v["nn.attkeys_us_per_row"] = timeRows(segs.R, func() {
		ws.Reset()
		m.TransAtt.PrecomputeKeys(points).QueryAllWS(ws, segs)
	})
}

// timedObs and timedTrans are the timing decorators of the hmm arm:
// the classical models behind them do the scoring, so what is left of
// the match time is the hmm package's own.
type timedObs struct {
	inner hmm.ObservationModel
	calls int
	spent time.Duration
}

func (t *timedObs) Candidates(ct traj.CellTrajectory, i, k int) []hmm.Candidate {
	t0 := time.Now()
	out := t.inner.Candidates(ct, i, k)
	t.spent += time.Since(t0)
	t.calls++
	return out
}

func (t *timedObs) Score(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	t0 := time.Now()
	out := t.inner.Score(ct, i, c)
	t.spent += time.Since(t0)
	t.calls++
	return out
}

type timedTrans struct {
	inner hmm.TransitionModel
	calls int
	spent time.Duration
}

func (t *timedTrans) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	t0 := time.Now()
	p, ok := t.inner.Score(ct, i, from, to)
	t.spent += time.Since(t0)
	t.calls++
	return p, ok
}

// hmmArm runs the classical matcher over the hot set with both models
// decorated; self time is the total minus the decorated time: Viterbi,
// shortcuts, backtrack and path expansion.
func (a *armRun) hmmArm(v map[string]float64) error {
	sp := a.rec.start("arm hmm", a.root, "")
	defer sp.end()
	net, router := a.fx.ds.Net, a.m.Router
	to := &timedObs{inner: &hmm.GaussianObservation{Net: net, Sigma: 450}}
	tt := &timedTrans{inner: &hmm.ExponentialTransition{Router: router, Beta: 500}}
	matcher := &hmm.Matcher{Net: net, Router: router, Obs: to, Trans: tt,
		Cfg: hmm.Config{K: a.m.Cfg.K, Shortcuts: a.m.Cfg.Shortcuts}}
	var total time.Duration
	points := 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 { // the first pass built the trees the nearest-k candidates need
			*to, *tt = timedObs{inner: to.inner}, timedTrans{inner: tt.inner}
			total, points = 0, 0
		}
		for _, trip := range a.fx.hot {
			t0 := time.Now()
			if _, err := matcher.Match(trip.Cell); err != nil {
				return fmt.Errorf("classical match trip %d: %w", trip.ID, err)
			}
			total += time.Since(t0)
			points += len(trip.Cell)
		}
	}
	v["hmm.self_us_per_point"] = us(total-to.spent-tt.spent) / float64(points)
	v["hmm.obs_calls_per_point"] = float64(to.calls) / float64(points)
	v["hmm.trans_calls_per_point"] = float64(tt.calls) / float64(points)
	return nil
}

// Package hmm provides the HMM map-matching backbone shared by LHMM and
// the HMM-family baselines: candidate road preparation, the candidate
// graph, Viterbi path-finding (Algorithm 1), the shortcut optimization
// that skips unqualified candidate sets (Algorithm 2, Observation 1),
// and the classical distance-based probability models (Eqs. 2–3).
//
// The matcher is fault-tolerant by configuration: Config.OnBreak
// selects whether a point with no candidates aborts the match (the
// paper's assumption), is skipped, or splits the trajectory into
// independently matched segments stitched with Gap markers;
// Config.Sanitize validates or repairs malformed input points; and
// non-finite probabilities from a misbehaving model degrade per step to
// the classical Eq. 2/3 models instead of poisoning the Viterbi table.
package hmm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Matcher telemetry (internal/obs). Hot loops accumulate into locals
// and flush once per Match, so the disabled-registry cost is a handful
// of atomic loads per trajectory.
var (
	obsMatches       = obs.Default.Counter("hmm.matches")
	obsMatchErrors   = obs.Default.Counter("hmm.match.errors")
	obsCandidates    = obs.Default.Counter("hmm.candidates")
	obsTransEval     = obs.Default.Counter("hmm.transitions.evaluated")
	obsTransBlocked  = obs.Default.Counter("hmm.transitions.unreachable")
	obsViterbiBreaks = obs.Default.Counter("hmm.viterbi.breaks")
	// Candidates no predecessor reached at a scored step (recur's
	// restarts); a break is a step where every candidate restarted.
	obsRestarts      = obs.Default.Counter("hmm.restarts")
	obsShortcutTries = obs.Default.Counter("hmm.shortcut.attempts")
	obsShortcutAdopt = obs.Default.Counter("hmm.shortcut.adoptions")
	// Attempts that had to call the models; attempts − scored read the
	// step tables (shortcuts.go).
	obsShortcutCalls = obs.Default.Counter("hmm.shortcut.scored")
	obsPointsSkipped = obs.Default.Counter("hmm.points.skipped")
	obsMatchSeconds  = obs.Default.Histogram("hmm.match.seconds", obs.LatencyBuckets)

	// Fault-tolerance telemetry: degraded-mode scoring events (a model
	// returned NaN/Inf and the classical Eq. 2/3 fallback was used),
	// stitch gaps emitted under the Split policy, dead (candidate-less)
	// points absorbed under Skip/Split, and input points removed by
	// sanitization. core/session increments the same degraded counter
	// (instruments are interned by name) for its batched fallbacks.
	obsMatchDegraded = obs.Default.Counter("hmm.match.degraded")
	obsMatchGaps     = obs.Default.Counter("hmm.match.gaps")
	obsDeadPoints    = obs.Default.Counter("hmm.match.deadpoints")
	obsSanitizedPts  = obs.Default.Counter("hmm.match.sanitized")

	// Explainability telemetry: decisions explained and how many were
	// flagged low-margin (explain.go). Only move when Config.Explain is
	// set.
	obsExplainDecisions = obs.Default.Counter("hmm.explain.decisions")
	obsExplainLowMargin = obs.Default.Counter("hmm.explain.lowmargin")
)

// Failpoints (internal/faultinject; no-op unless armed) for chaos
// testing the break-recovery and degraded-mode machinery.
var (
	fpDeadCandidates = faultinject.New("hmm.candidates.empty")
	fpTransNaN       = faultinject.New("hmm.trans.nan")
)

// ErrNoCandidates marks a match abort caused by an empty candidate set
// (one fatal dead point under BreakError, or every point dead); callers
// test for it with errors.Is.
var ErrNoCandidates = errors.New("no candidates")

// Candidate is one candidate road segment for one trajectory point
// (Definition 4), carrying its projection and observation score.
type Candidate struct {
	Seg  roadnet.SegmentID
	Frac float64   // fraction along the segment of the projected point
	Proj geo.Point // projected position on the segment
	Dist float64   // distance from the trajectory point to the segment
	Obs  float64   // observation probability P_O(c|x)
	// Pseudo marks candidates synthesized by the shortcut optimization
	// (the projected road c_{i-1}^u of Eq. 21). They are appended to
	// their layer after its own candidates.
	Pseudo bool
}

// Pos returns the candidate as an on-road point for routing.
func (c *Candidate) Pos() roadnet.PointOnRoad {
	return roadnet.PointOnRoad{Seg: c.Seg, Frac: c.Frac}
}

// ObservationModel scores the candidate roads of trajectory points.
//
// A batch match (MatchContext) calls Candidates for every point, in
// point order, on a helper goroutine of its own (with a
// TransitionRouteModel's PrepareRoutes after each), while the caller's
// goroutine runs the forward pass: the rest of the TransitionModel, and
// Score for the shortcut pass. Score(ct, i, …) is called only after
// Candidates(ct, i, …) has returned, and the channel that hands the
// layer over orders the two. So Candidates for point j may run
// concurrently with Score for a point i < j and with the transition
// model's calls; state that Candidates writes must be per point, or
// guarded. A StreamMatcher calls everything on the pushing goroutine.
type ObservationModel interface {
	// Candidates returns up to k candidate segments for point i of the
	// trajectory, each with its observation probability, sorted by
	// descending probability.
	Candidates(ct traj.CellTrajectory, i, k int) []Candidate
	// Score returns the observation probability of an arbitrary
	// candidate of point i (a shortcut pseudo-candidate on a road outside
	// the point's layer). For a candidate Candidates returned for the
	// same point it returns that candidate's Obs: the shortcut pass
	// relies on it and reads the layer's Obs instead of calling.
	Score(ct traj.CellTrajectory, i int, c *Candidate) float64
}

// TransitionModel scores the movement between candidates of consecutive
// trajectory points.
type TransitionModel interface {
	// Score returns P_T for moving from the candidate of point i-1 to
	// the candidate of point i via the shortest path. ok=false means
	// the movement is impossible (unreachable within bounds). It is a
	// pure function of its arguments — the trajectory, i and the two
	// candidates' road positions: the shortcut pass reads a pair the
	// forward pass scored from the step table instead of calling again.
	Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool)
}

// TransitionBatchModel is an optional fast path a TransitionModel may
// implement: score the whole |from|×|to| transition fan-out of one
// Viterbi step in a single call, so implementations can batch their
// per-pair inference (one k²×d matrix product instead of k² row
// products). The matcher prefers it over pairwise Score when present;
// like Score it is a pure function of its arguments, and the two agree
// bit for bit, NaN exactly where Score reports ok=false.
type TransitionBatchModel interface {
	// ScoreBatch fills out[j*len(to)+kk] with P_T(from[j] → to[kk]) for
	// movement into point i, or NaN where the movement is impossible.
	// out has length len(from)*len(to). It returns how many of those
	// scores the model itself had to degrade (a non-finite learned score
	// replaced by, or dropped for want of, a classical fallback), which
	// the matcher adds to the match's degraded count.
	ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) (degraded int)
}

// TransitionRouteModel is an optional extension of TransitionBatchModel
// for a model whose step scoring starts by routing the fan-out. The
// shortest paths between two layers depend on the layers alone, never
// on the Viterbi scores, so a batch match (MatchContext) prepares them
// on its helper goroutine, right after the layer they lead into, and
// hands them to the step with the layer. A stream push, a shortcut
// pseudo-candidate pair and anything else that calls ScoreBatch routes
// inline.
type TransitionRouteModel interface {
	TransitionBatchModel
	// PrepareRoutes routes every pair of the fan-out from → to. It reads
	// only the two layers and the model's road network and router, so it
	// may run concurrently with every other call of the model's; it
	// writes no state that another call reads.
	PrepareRoutes(from, to []Candidate) StepRoutes
}

// StepRoutes is one step's fan-out as a TransitionRouteModel routed it.
type StepRoutes interface {
	// ScoreBatch is the model's ScoreBatch for the same two layers with
	// the routing already done: the same out, bit for bit, and the same
	// degraded count. It runs on the goroutine that owns the match.
	ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) (degraded int)
	// Release hands the routes back for reuse, scored or not; nothing
	// reads them afterwards.
	Release()
}

// BreakPolicy selects how the matcher treats a dead point — one whose
// candidate set is empty (off-map outlier, fault injection, or a
// sanitizer-passed but unmatchable position).
type BreakPolicy int

const (
	// BreakError aborts the match with an error on the first dead
	// point (the default; the paper's Algorithm 1 assumption).
	BreakError BreakPolicy = iota
	// BreakSkip silently drops dead points: the chain restarts after
	// each dead gap, Result.Dead marks what was skipped, and the
	// expanded path still routes across the gap.
	BreakSkip
	// BreakSplit segments the trajectory at dead points and at Viterbi
	// breaks on the chosen path (every predecessor unreachable), each
	// segment matched independently and stitched with explicit
	// Result.Gaps markers; the expanded path does not route across a
	// gap.
	BreakSplit
)

// String returns the CLI spelling of the policy.
func (p BreakPolicy) String() string {
	switch p {
	case BreakError:
		return "error"
	case BreakSkip:
		return "skip"
	case BreakSplit:
		return "split"
	default:
		return fmt.Sprintf("BreakPolicy(%d)", int(p))
	}
}

// ParseBreakPolicy parses the CLI spelling of a break policy.
func ParseBreakPolicy(s string) (BreakPolicy, error) {
	switch s {
	case "error":
		return BreakError, nil
	case "skip":
		return BreakSkip, nil
	case "split":
		return BreakSplit, nil
	default:
		return 0, fmt.Errorf("hmm: unknown break policy %q (want error, skip, or split)", s)
	}
}

// GapReason explains why a stitch gap was emitted.
type GapReason int

const (
	// GapNoCandidates marks a gap spanning one or more dead points.
	GapNoCandidates GapReason = iota
	// GapViterbiBreak marks a gap where the chosen path restarted
	// because every transition into the point was unreachable.
	GapViterbiBreak
)

// String names the reason.
func (r GapReason) String() string {
	switch r {
	case GapNoCandidates:
		return "no-candidates"
	case GapViterbiBreak:
		return "viterbi-break"
	default:
		return fmt.Sprintf("GapReason(%d)", int(r))
	}
}

// Gap marks a discontinuity in a Split-policy match: the chain was
// broken between points From and To (indices into the matched
// trajectory; every point strictly between them is dead) and the two
// sides were matched independently.
type Gap struct {
	From, To int
	Reason   GapReason
}

// Result is the output of Viterbi path-finding.
type Result struct {
	// Matched holds the chosen candidate per point. Points skipped via
	// a shortcut have Skipped set and carry the pseudo-candidate the
	// shortcut projected for them. Dead points (only possible under
	// the Skip/Split break policies) have Dead set and a zero
	// Candidate.
	Matched []Candidate
	Skipped []bool
	// Dead marks points that had no candidates and were excluded from
	// matching (Skip/Split policies; always all-false under Error).
	Dead []bool
	// Gaps lists the stitch boundaries of a Split-policy match in
	// trajectory order (empty under Error/Skip).
	Gaps []Gap
	// Candidates holds the prepared candidate set per point (before
	// shortcut pseudo-candidates), for hitting-ratio evaluation.
	Candidates [][]Candidate
	// Path is the connected traveled path obtained by expanding the
	// routes between consecutive matched candidates. Under Split, the
	// path is not routed across Gaps: both gap endpoints appear
	// back-to-back and Gaps records the discontinuity.
	Path []roadnet.SegmentID
	// Score is the final candidate-path score (Eq. 14 form).
	Score float64
	// ShortcutAdoptions counts how many table entries Algorithm 2
	// improved (diagnostic; a skipped point also sets Skipped).
	ShortcutAdoptions int
	// Degraded counts scoring events that fell back to the classical
	// Eq. 2/3 models because a model returned NaN/Inf.
	Degraded int
	// Sanitize reports input points removed by drop-mode sanitization.
	// When points were dropped, all indices in this Result refer to
	// the sanitized trajectory.
	Sanitize traj.SanitizeReport
	// Trace is the per-trajectory telemetry record, populated only when
	// Config.Trace is set.
	Trace *obs.MatchTrace
	// Explain is the per-decision explanation artifact, populated only
	// when Config.Explain is set (explain.go).
	Explain *Explain
}

// Scoring selects how candidate paths accumulate step scores.
type Scoring int

const (
	// ScoreSum is the paper's Eq. 14: candidate paths sum the
	// P_T·P_O products of their steps.
	ScoreSum Scoring = iota
	// ScoreLogProd is the classical HMM objective: paths maximize the
	// product of step probabilities, accumulated as a sum of logs
	// (floored to keep zero-probability steps finite). An ablation of
	// the paper's design choice (DESIGN.md §6).
	ScoreLogProd
)

// Config parameterizes the matcher.
type Config struct {
	// K is the number of candidate roads per point (§V-A2: 30 for
	// LHMM, 45 for baselines).
	K int
	// Shortcuts is the number of one-hop shortcut predecessors per
	// candidate (the paper's K in §IV-E2; 1 is sufficient, 0 disables).
	Shortcuts int
	// Scoring selects sum-of-products (the paper) or log-product
	// accumulation.
	Scoring Scoring
	// OnBreak selects the dead-point policy: Error (default), Skip, or
	// Split. See BreakPolicy.
	OnBreak BreakPolicy
	// Sanitize selects input validation: strict (default; malformed
	// points error), drop (malformed points removed, reported in
	// Result.Sanitize), or off.
	Sanitize traj.SanitizeMode
	// Trace collects a per-trajectory obs.MatchTrace on every Match
	// (per-point candidate and score stats, break events, stage
	// wall-clock) at the cost of a few clock reads per stage.
	Trace bool
	// Explain assembles a per-decision Explain artifact on the Result:
	// top-k candidate emission breakdowns, the chosen backpointer with
	// its step score and route, and winner/runner-up margins. Costs
	// per-point allocations and one route query per chosen transition;
	// leave off on hot paths.
	Explain bool
	// ExplainTopK bounds the per-point candidate breakdown (default 5).
	ExplainTopK int
}

// Matcher runs HMM path-finding with pluggable probability models —
// classical models yield the baselines, learned models yield LHMM.
type Matcher struct {
	Net    *roadnet.Network
	Router *roadnet.Router
	Obs    ObservationModel
	Trans  TransitionModel
	Cfg    Config
}

// Match runs candidate preparation and Viterbi, with (if enabled) the
// shortcut optimization in every step, on one cellular trajectory.
func (m *Matcher) Match(ct traj.CellTrajectory) (*Result, error) {
	return m.MatchContext(context.Background(), ct)
}

// MatchContext is Match with cancellation: the context is checked
// before each point's layer is prepared and before its Viterbi step
// (and between columns of a pairwise transition fan-out), so a
// canceled or deadline-expired context stops the match within one
// step's work and returns the context error wrapped.
//
// The layers, and a TransitionRouteModel's routes between them, are
// prepared on a helper goroutine (see ObservationModel for what that
// asks of the model). The helper ends before MatchContext returns,
// whatever the outcome, and a panic in Candidates or PrepareRoutes
// resurfaces here, on the caller's goroutine.
func (m *Matcher) MatchContext(ctx context.Context, ct traj.CellTrajectory) (*Result, error) {
	if len(ct) == 0 {
		obsMatchErrors.Inc()
		return nil, fmt.Errorf("hmm: empty trajectory")
	}
	ct, srep, err := traj.Sanitize(ct, m.Cfg.Sanitize)
	if err != nil {
		obsMatchErrors.Inc()
		return nil, fmt.Errorf("hmm: %w", err)
	}
	if srep.Dropped() > 0 {
		obsSanitizedPts.Add(int64(srep.Dropped()))
	}
	n := len(ct)
	if n == 0 {
		obsMatchErrors.Inc()
		return nil, fmt.Errorf("hmm: %w: no valid points left after sanitization (dropped %d)", traj.ErrMalformed, srep.Dropped())
	}
	// Telemetry: counters accumulate into locals and flush once at the
	// end; the per-stage clock only runs when tracing is on — either a
	// MatchTrace (Cfg.Trace) or a request span arriving on ctx, which
	// receives the same stage timings as child spans.
	sp := obs.SpanFromContext(ctx)
	traced := m.Cfg.Trace || sp != nil
	var st obs.StageTimings
	stage := func(target *float64) func() {
		if !traced {
			return nopStage
		}
		return obs.Stage(target)
	}
	var start time.Time
	timed := traced || obs.Default.Enabled()
	if timed {
		start = time.Now()
	}

	// Steps 1–3, one point at a time. A helper goroutine prepares the
	// candidate layers (step 1) in point order, and with a
	// TransitionRouteModel the routes of each step into them, while this
	// one runs the forward pass (steps 2–3) over each layer as it
	// arrives: the transition scores, the recurrence and each step's
	// shortcut window (Algorithm 2). Dead points (no candidates) are
	// fatal under the Error policy and recorded for segmentation under
	// Skip/Split. The time spent waiting for a layer is the candidates
	// stage and the windows' time is the shortcuts stage; both come out
	// of the Viterbi stage.
	fw := m.newForward(n)
	prepared := make(chan layerPrep, n) // a slot per point: a send never waits
	quit := make(chan struct{})
	explain := fw.es != nil
	// Prepared routes are a step's largest scratch: at most routesAhead
	// of them are out at a time, so the helper waits for the forward
	// pass to release one before it routes further ahead.
	var route func(from, to []Candidate) StepRoutes
	ahead := make(chan struct{}, routesAhead)
	if rm, ok := m.Trans.(TransitionRouteModel); ok {
		route = func(from, to []Candidate) StepRoutes {
			select {
			case ahead <- struct{}{}:
			case <-quit:
				return nil
			}
			return rm.PrepareRoutes(from, to)
		}
	}
	release := func(r StepRoutes) {
		if r != nil {
			r.Release()
			<-ahead
		}
	}
	go func() {
		defer close(prepared)
		m.prepareLayers(ctx, ct, 0, explain, route, func(p layerPrep) bool {
			prepared <- p
			select {
			case <-quit:
				return false
			default:
				return true
			}
		})
	}()
	defer func() {
		// Whatever way the match ends, the helper ends before it, and the
		// routes it prepared for steps that will not run go back.
		close(quit)
		for p := range prepared {
			release(p.routes)
		}
	}()
	done := stage(&st.ViterbiS)
	var transS, shortS *float64
	if traced {
		transS, shortS = &st.TransitionS, &st.ShortcutsS
	}
	for i := range ct {
		var wait time.Time
		if traced {
			wait = time.Now()
		}
		p := <-prepared
		if traced {
			st.CandidatesS += time.Since(wait).Seconds()
		}
		// The helper closes the channel early only once ctx is done.
		if err := ctx.Err(); err != nil {
			release(p.routes)
			obsMatchErrors.Inc()
			return nil, fmt.Errorf("hmm: match canceled at point %d: %w", i, err)
		}
		layer, err := m.addLayer(&fw.tb, p, fw.es, &fw.deg)
		if err != nil {
			release(p.routes)
			obsMatchErrors.Inc()
			return nil, err
		}
		fw.noteLayer(i, layer)
		steps, ss := m.advance(ctx, &fw.tb, ct, p.routes, transS, shortS, &fw.deg)
		release(p.routes)
		fw.noteStep(i, layer, steps, ss)
	}
	done()
	st.ViterbiS -= st.CandidatesS + st.ShortcutsS
	if len(fw.alive) == 0 {
		obsMatchErrors.Inc()
		return nil, fmt.Errorf("hmm: %w for any of the %d points", ErrNoCandidates, n)
	}

	res := m.finish(ct, fw, srep, &st, stage)
	fw.flush(res)
	if timed {
		elapsed := time.Since(start).Seconds()
		obsMatchSeconds.Observe(elapsed)
		if traced {
			st.TotalS = elapsed
			if fw.trace != nil {
				fw.trace.Stages = st
			}
			emitStageSpans(sp, start, st)
		}
	}
	return res, nil
}

// forward is a batch match's forward pass as it grows: the table, each
// point's layer as prepared (before shortcut pseudo-candidates), the
// alive points, the optional trace and explain state, and the counts
// the match flushes to telemetry once it is done.
type forward struct {
	tb    table
	keep  [][]Candidate
	alive []int
	trace *obs.MatchTrace
	es    *explainState
	sc    shortcutStats
	deg   int64 // degraded-mode scoring events

	nCand, nEval, nBlocked, nBreaks, nSkipped int64
	nRestarts, nDecisions, nLowMargin         int64
}

func (m *Matcher) newForward(n int) *forward {
	fw := &forward{
		tb: table{
			layers: make([][]Candidate, 0, n),
			f:      make([][]float64, 0, n),
			pre:    make([][]int, 0, n),
			dead:   make([]bool, 0, n),
			steps:  make([][][]float64, 0, n),
		},
		keep:  make([][]Candidate, n),
		alive: make([]int, 0, n),
	}
	if m.Cfg.Trace {
		fw.trace = obs.NewMatchTrace(n)
	}
	if m.Cfg.Explain {
		fw.es = newExplainState(n, m.Cfg.ExplainTopK)
	}
	return fw
}

// noteLayer records point i's layer as addLayer returned it.
func (fw *forward) noteLayer(i int, layer []Candidate) {
	if layer == nil {
		return
	}
	fw.keep[i] = append([]Candidate(nil), layer...)
	fw.alive = append(fw.alive, i)
	fw.nCand += int64(len(layer))
	if fw.trace != nil {
		pt := &fw.trace.Points[i]
		pt.Candidates = len(layer)
		var sum float64
		for j := range layer {
			if o := layer[j].Obs; o > pt.BestObs {
				pt.BestObs = o
			}
			sum += layer[j].Obs
		}
		pt.MeanObs = sum / float64(len(layer))
	}
}

// noteStep records what advance did at point i, whose own layer is
// layer.
func (fw *forward) noteStep(i int, layer []Candidate, steps [][]float64, ss stepStats) {
	if steps == nil {
		return
	}
	fw.nBlocked += int64(ss.blocked)
	fw.nEval += int64(ss.reachable + ss.blocked)
	fw.sc.add(ss.shortcuts)
	fw.nRestarts += int64(ss.restarts)
	if fw.trace != nil {
		pt := &fw.trace.Points[i]
		pt.TransEvaluated = ss.reachable + ss.blocked
		pt.TransReachable = ss.reachable
		pt.Restarts = ss.restarts
	}
	if ss.restarts == len(layer) {
		// Every candidate restarted: the chain broke at this point
		// and recovers from fresh observation scores.
		fw.nBreaks++
		fw.trace.AddBreak(i)
	}
}

// finish runs the backward pass over a forward pass with at least one
// alive point, expands the path and assembles the Result, with the
// explain artifact when asked for; stage times the backtrack and the
// expansion into st.
func (m *Matcher) finish(ct traj.CellTrajectory, fw *forward, srep traj.SanitizeReport, st *obs.StageTimings, stage func(*float64) func()) *Result {
	layers, dead, f, pre, steps := fw.tb.layers, fw.tb.dead, fw.tb.f, fw.tb.pre, fw.tb.steps
	n, alive, es, trace := len(layers), fw.alive, fw.es, fw.trace

	// Backward pass over the alive points; dead points keep a zero
	// Candidate and Dead=true. Under Split, a dead gap or a chosen-path
	// restart becomes an explicit Gap marker.
	done := stage(&st.BacktrackS)
	res := &Result{
		Matched:           make([]Candidate, n),
		Skipped:           make([]bool, n),
		Dead:              dead,
		Candidates:        fw.keep,
		ShortcutAdoptions: fw.sc.adoptions,
		Degraded:          int(fw.deg),
		Sanitize:          srep,
		Trace:             trace,
	}
	if trace != nil {
		trace.ShortcutAdoptions = fw.sc.adoptions
		trace.ShortcutAttempts = fw.sc.attempts
	}
	last := alive[len(alive)-1]
	res.Score = f[last][argmaxF(f[last])]
	noRouteTo := make(map[int]bool)
	var onBreak func(Gap)
	if m.Cfg.OnBreak == BreakSplit {
		onBreak = func(g Gap) {
			res.Gaps = append(res.Gaps, g)
			noRouteTo[g.To] = true
		}
	}
	walkBack(f, pre, dead, 0, func(i, idx int) {
		res.Matched[i] = layers[i][idx]
		res.Skipped[i] = layers[i][idx].Pseudo
		if es != nil {
			es.chosen[i] = idx
		}
		if res.Skipped[i] {
			fw.nSkipped++
			if trace != nil {
				trace.Points[i].Skipped = true
			}
		}
	}, onBreak)
	// Gaps were appended walking backward; restore trajectory order.
	for a, b := 0, len(res.Gaps)-1; a < b; a, b = a+1, b-1 {
		res.Gaps[a], res.Gaps[b] = res.Gaps[b], res.Gaps[a]
	}
	done()

	done = stage(&st.ExpandS)
	res.Path = m.expandPath(res.Matched, alive, noRouteTo)
	done()

	if es != nil {
		res.Explain, fw.nDecisions, fw.nLowMargin = m.buildExplain(ct, es, layers, fw.keep, f, pre, steps, dead, alive)
	}
	return res
}

// flush adds a finished match's counts to the matcher's telemetry.
func (fw *forward) flush(res *Result) {
	obsMatches.Inc()
	obsCandidates.Add(fw.nCand)
	obsTransEval.Add(fw.nEval)
	obsTransBlocked.Add(fw.nBlocked)
	obsViterbiBreaks.Add(fw.nBreaks)
	obsRestarts.Add(fw.nRestarts)
	fw.sc.flush()
	obsPointsSkipped.Add(fw.nSkipped)
	obsMatchDegraded.Add(fw.deg)
	obsMatchGaps.Add(int64(len(res.Gaps)))
	obsDeadPoints.Add(int64(len(res.Dead) - len(fw.alive)))
	obsExplainDecisions.Add(fw.nDecisions)
	obsExplainLowMargin.Add(fw.nLowMargin)
}

// emitStageSpans attributes the measured stage wall-clock onto the
// request's span tree as contiguous child spans; the transition fill
// nests inside the viterbi span. No-op without a parent span.
func emitStageSpans(sp *obs.Span, start time.Time, st obs.StageTimings) {
	if sp == nil {
		return
	}
	secs := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second))
	}
	cur := start
	emit := func(name string, s float64) *obs.Span {
		c := sp.ChildAt(name, cur, secs(s))
		cur = cur.Add(secs(s))
		return c
	}
	emit("candidates", st.CandidatesS)
	vStart := cur
	v := emit("viterbi", st.ViterbiS)
	v.ChildAt("transition", vStart, secs(st.TransitionS))
	emit("shortcuts", st.ShortcutsS)
	emit("backtrack", st.BacktrackS)
	emit("route", st.ExpandS)
}

// nopStage is the shared no-op stage closer used when tracing is off.
var nopStage = func() {}

// table is the forward state of Algorithm 1, grown one point at a time
// by both matchers: per point, the candidate layer, the Viterbi scores
// and backpointers (pre[i][j] indexes layers[i-1]; −1 for none), whether
// the point is dead, and the step table into it (steps[i][j][kk] =
// W(c_{i-1}^j → c_i^kk), NaN when unreachable; nil where the recurrence
// did not run — a dead point, a chain start — and wherever the stream
// let it go). A dead point holds nil rows, so every slice stays
// index-aligned with the trajectory. tops is the shortcut window's
// scratch, reused by every window of the match or stream.
type table struct {
	layers [][]Candidate
	f      [][]float64
	pre    [][]int
	dead   []bool
	steps  [][][]float64
	tops   colTops
}

// routesAhead bounds the steps a batch match's helper routes ahead of
// the forward pass.
const routesAhead = 3

// layerPrep is one point's candidate layer as candidates built it: the
// layer, how many of its observation scores fell back (Degraded), and —
// when explain is set — which; the routes of the step into it, when
// they were prepared with it; or, instead, what the model's Candidates
// or PrepareRoutes panicked with.
type layerPrep struct {
	layer    []Candidate
	fellback []bool
	deg      int64
	routes   StepRoutes
	panicked any
}

// prepareLayers prepares the layers of points from, from+1, … of ct in
// order and hands each to emit; with route non-nil, it routes the step
// from each non-empty layer into the next non-empty one right after the
// latter (route may return nil: the step then routes inline). It stops
// after the last point, before a point once ctx is done, once emit
// returns false, and after a point whose Candidates or route call
// panicked: the panic is recovered into that point's slot for addLayer
// to raise again, on the goroutine that owns the table. A batch match
// runs it over the whole trajectory on a helper goroutine; a stream
// push runs it inline over its one new point, without route.
func (m *Matcher) prepareLayers(ctx context.Context, ct traj.CellTrajectory, from int, explain bool, route func(from, to []Candidate) StepRoutes, emit func(layerPrep) bool) {
	var prev []Candidate
	for i := from; i < len(ct) && ctx.Err() == nil; i++ {
		var p layerPrep
		func() {
			defer func() {
				if r := recover(); r != nil {
					p = layerPrep{panicked: r}
				}
			}()
			p = m.candidates(ct, i, explain)
			if route != nil && len(prev) > 0 && len(p.layer) > 0 {
				p.routes = route(prev, p.layer)
			}
		}()
		prev = p.layer
		if !emit(p) || p.panicked != nil {
			return
		}
	}
}

// addLayer is the first half of the forward step: it appends p, the
// prepared layer of the next point, i = len(t.layers), to t and returns
// the layer, adding p's degraded count to deg. A dead point is appended
// as nil whatever the policy; under BreakError it is also an error
// wrapping ErrNoCandidates. es (optional) receives the layer's
// degraded-fallback flags. A slot that carries a panic panics again
// with its value, before anything is appended.
func (m *Matcher) addLayer(t *table, p layerPrep, es *explainState, deg *int64) ([]Candidate, error) {
	if p.panicked != nil {
		panic(p.panicked)
	}
	i := len(t.layers)
	layer := p.layer
	if fpDeadCandidates.Fail() || len(layer) == 0 {
		layer = nil
	} else {
		*deg += p.deg
		if es != nil {
			es.fellback[i] = p.fellback
		}
	}
	t.layers = append(t.layers, layer)
	t.dead = append(t.dead, layer == nil)
	if layer == nil && m.Cfg.OnBreak == BreakError {
		return nil, fmt.Errorf("hmm: %w for point %d", ErrNoCandidates, i)
	}
	return layer, nil
}

// advance is the second half: it appends the Viterbi rows and the step
// table of the next point, i = len(t.f), whose layer is already in t. A
// dead point gets nil rows; the first alive point and the far side of a
// dead gap restart from observation scores; otherwise fillSteps scores
// the whole transition fan-out into a step table (timed into transS when
// non-nil), over routes when they were prepared for it (otherwise nil),
// and recur runs the recurrence over it, always sequentially so
// results do not depend on scheduling. Then, with Cfg.Shortcuts > 0 and
// both steps[i-1] and steps[i] in t, the shortcut window of Eq. 21 lets
// the grand-predecessors c_{i-2} compete for f[i] (timed into shortS)
// before point i+1 reads it. It returns the step table — nil unless the
// recurrence ran — and the step's stats.
func (m *Matcher) advance(ctx context.Context, t *table, ct traj.CellTrajectory, routes StepRoutes, transS, shortS *float64, deg *int64) (steps [][]float64, st stepStats) {
	i := len(t.f)
	var f []float64
	var pre []int
	switch {
	case t.dead[i]:
	case i == 0 || t.dead[i-1]:
		f, pre = m.restart(t.layers[i])
	default:
		done := obs.Stage(transS)
		steps = m.fillSteps(ctx, ct, i, t.layers[i-1], t.layers[i], routes, deg)
		done()
		f, pre, st = m.recur(steps, t.f[i-1], t.layers[i])
	}
	t.f = append(t.f, f)
	t.pre = append(t.pre, pre)
	t.steps = append(t.steps, steps)
	if m.Cfg.Shortcuts > 0 && steps != nil && t.steps[i-1] != nil {
		done := obs.Stage(shortS)
		st.shortcuts = m.addShortcuts(ct, t, i, deg)
		done()
	}
	return steps, st
}

// candidates prepares point i's candidate layer, Cfg.K roads (default
// 30), touching no matcher state. Degraded mode: a NaN/Inf observation
// probability would poison every path through the point, so it falls
// back to the classical Eq. 2 Gaussian of the candidate's distance,
// counted in the slot's deg and — when explain is set — flagged per
// candidate in its fellback.
func (m *Matcher) candidates(ct traj.CellTrajectory, i int, explain bool) (p layerPrep) {
	k := m.Cfg.K
	if k <= 0 {
		k = 30
	}
	p.layer = m.Obs.Candidates(ct, i, k)
	if explain && len(p.layer) > 0 {
		p.fellback = make([]bool, len(p.layer))
	}
	for j := range p.layer {
		if o := p.layer[j].Obs; math.IsNaN(o) || math.IsInf(o, 0) {
			p.layer[j].Obs = m.fallbackObs(p.layer[j].Dist)
			p.deg++
			if explain {
				p.fellback[j] = true
			}
		}
	}
	return p
}

// restart seeds a layer's column of the Viterbi table from observation
// scores alone: the first alive point, and the far side of a dead gap —
// the models score adjacent points only, so no transition evidence
// bridges one.
func (m *Matcher) restart(layer []Candidate) (f []float64, pre []int) {
	f, pre = make([]float64, len(layer)), make([]int, len(layer))
	for j := range layer {
		f[j] = m.accum(layer[j].Obs)
		pre[j] = -1
	}
	return f, pre
}

// fillSteps scores the transition fan-out into point i as a fresh step
// table: steps[j][kk] = accum(P_T(from[j]→to[kk]) · P_O(to[kk])), NaN
// where unreachable. A TransitionBatchModel scores the whole fan-out in
// one call, straight into the table's backing array, over the step's
// prepared routes when there are some; otherwise pairwise Score fills it
// column by column, stopping early when ctx is canceled (the caller's
// per-step ctx check surfaces the error).
func (m *Matcher) fillSteps(ctx context.Context, ct traj.CellTrajectory, i int, from, to []Candidate, routes StepRoutes, deg *int64) [][]float64 {
	nTo := len(to)
	flat := make([]float64, len(from)*nTo)
	steps := make([][]float64, len(from))
	for j := range steps {
		steps[j] = flat[j*nTo : (j+1)*nTo : (j+1)*nTo]
	}
	if bm, ok := m.Trans.(TransitionBatchModel); ok {
		if routes != nil {
			bm = routes
		}
		*deg += int64(bm.ScoreBatch(ct, i, from, to, flat))
		for j := range from {
			row := steps[j]
			for kk := range to {
				// NaN is the batch protocol's unreachable sentinel; an
				// Inf, however, is a misbehaving model — degrade it.
				pt := row[kk]
				if math.IsInf(pt, 0) {
					var ok bool
					pt, ok = m.fallbackTrans(ct, i, &from[j], &to[kk])
					*deg++
					if !ok {
						pt = math.NaN()
					}
				}
				if !math.IsNaN(pt) {
					pt = m.accum(pt * to[kk].Obs)
				}
				row[kk] = pt
			}
		}
		return steps
	}
	for p := range flat {
		flat[p] = math.NaN()
	}
	for kk := range to {
		if ctx.Err() != nil {
			break
		}
		for j := range from {
			if w, ok := m.stepScore(ct, i, &from[j], &to[kk], deg); ok {
				steps[j][kk] = w
			}
		}
	}
	return steps
}

// stepStats counts the outcomes of one forward step.
type stepStats struct {
	restarts  int           // candidates with no reachable predecessor
	reachable int           // fan-out pairs the transition model could route
	blocked   int           // fan-out pairs it could not
	shortcuts shortcutStats // what the step's shortcut window did
}

// recur is the Viterbi recurrence of Algorithm 1 for one point: each
// candidate of layer to takes the best fPrev[j] + steps[j][kk] over its
// reachable predecessors. A candidate with none restarts (pre −1), so
// one broken layer cannot void the whole trajectory. Under ScoreSum it
// restarts from its own observation score, accum(P_O). Under
// ScoreLogProd that would be a bonus — log P_O alone beats any prefix
// that has summed a few negative logs — so the blocked step is charged
// as an unreachable pair instead: the best live predecessor's score plus
// the floor accum(0), plus accum(P_O). Where no predecessor is live, it
// restarts from accum(P_O) under either rule.
func (m *Matcher) recur(steps [][]float64, fPrev []float64, to []Candidate) (f []float64, pre []int, st stepStats) {
	f, pre = make([]float64, len(to)), make([]int, len(to))
	for kk := range to {
		best, bestJ := math.Inf(-1), -1
		for j := range steps {
			w := steps[j][kk]
			if math.IsNaN(w) {
				st.blocked++
				continue
			}
			st.reachable++
			if math.IsInf(fPrev[j], -1) {
				continue
			}
			if s := fPrev[j] + w; s > best {
				best, bestJ = s, j
			}
		}
		if bestJ < 0 {
			f[kk], pre[kk] = m.restartScore(fPrev, to[kk].Obs), -1
			st.restarts++
			continue
		}
		f[kk], pre[kk] = best, bestJ
	}
	return f, pre, st
}

// restartScore is recur's score for a candidate with observation
// probability obs that no predecessor reaches: accum(obs) under
// ScoreSum, and under ScoreLogProd max(fPrev) + accum(0) + accum(obs)
// when some predecessor is live (its score above −Inf).
func (m *Matcher) restartScore(fPrev []float64, obs float64) float64 {
	if m.Cfg.Scoring != ScoreLogProd {
		return m.accum(obs)
	}
	best := math.Inf(-1)
	for _, v := range fPrev {
		if v > best {
			best = v
		}
	}
	if math.IsInf(best, -1) {
		return m.accum(obs)
	}
	return best + m.accum(0) + m.accum(obs)
}

// argmaxF returns the index of the largest score in a table column.
func argmaxF(v []float64) int {
	best, idx := math.Inf(-1), 0
	for j, x := range v {
		if x > best {
			best, idx = x, j
		}
	}
	return idx
}

// walkBack is the backward pass of Algorithm 1. It starts at the best
// candidate of the last alive point and follows the backpointers toward
// the head of the trajectory, stopping below point stop. visit is called
// for every alive point i ≥ stop, last to first, with the chosen
// candidate idx. Where the chain does not enter i through a backpointer
// into point i-1, the walk resumes from the previous alive point's own
// best candidate and, if onBreak is non-nil, reports the boundary
// first: GapNoCandidates when dead points lie between the two,
// GapViterbiBreak when the recurrence restarted at i.
func walkBack(f [][]float64, pre [][]int, dead []bool, stop int, visit func(i, idx int), onBreak func(Gap)) {
	prevAlive := func(i int) int {
		for i--; i >= 0 && dead[i]; i-- {
		}
		return i
	}
	i := prevAlive(len(dead))
	if i < 0 {
		return
	}
	for idx := argmaxF(f[i]); i >= stop; {
		p, from := prevAlive(i), -1
		if p >= 0 && p == i-1 {
			from = pre[i][idx]
		}
		visit(i, idx)
		if p < 0 {
			return
		}
		if from >= 0 {
			idx = from
		} else {
			if onBreak != nil {
				reason := GapViterbiBreak
				if p != i-1 {
					reason = GapNoCandidates
				}
				onBreak(Gap{From: p, To: i, Reason: reason})
			}
			idx = argmaxF(f[p])
		}
		i = p
	}
}

// stepScore is Eq. 13: W(a→b) = P_T(a→b) · P_O(b|x_i), accumulated
// per the configured scoring. A NaN/Inf transition probability (a
// misbehaving learned model) degrades to the classical Eq. 3
// exponential instead of poisoning the Viterbi table; deg (optional)
// counts those events.
func (m *Matcher) stepScore(ct traj.CellTrajectory, i int, from, to *Candidate, deg *int64) (float64, bool) {
	pt, ok := m.Trans.Score(ct, i, from, to)
	if fpTransNaN.Fail() {
		pt = math.NaN()
	}
	if !ok {
		return 0, false
	}
	if math.IsNaN(pt) || math.IsInf(pt, 0) {
		if deg != nil {
			*deg++
		}
		pt, ok = m.fallbackTrans(ct, i, from, to)
		if !ok {
			return 0, false
		}
	}
	return m.accum(pt * to.Obs), true
}

// fallbackObs is the degraded-mode observation probability: the
// classical Eq. 2 Gaussian of the candidate's distance.
func (m *Matcher) fallbackObs(dist float64) float64 {
	z := dist / ClassicalSigma
	return math.Exp(-0.5 * z * z)
}

// fallbackTrans is the degraded-mode transition probability: the
// classical Eq. 3 exponential over the route/straight-line distance
// difference.
func (m *Matcher) fallbackTrans(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	dist, ok := m.Router.RouteDist(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	return math.Exp(-math.Abs(straight-dist) / ClassicalBeta), true
}

// accum maps a step probability into the additive scoring domain.
func (m *Matcher) accum(p float64) float64 {
	if m.Cfg.Scoring == ScoreLogProd {
		const floor = -20
		if p <= 0 {
			return floor
		}
		l := math.Log(p)
		if l < floor {
			return floor
		}
		return l
	}
	return p
}

// expandPath concatenates the shortest-path routes between consecutive
// matched alive candidates into one traveled path. Routing into a
// point listed in noRouteTo (a Split-policy gap boundary) is
// suppressed: both endpoints are emitted back-to-back and the Result's
// Gaps record the discontinuity.
func (m *Matcher) expandPath(matched []Candidate, alive []int, noRouteTo map[int]bool) []roadnet.SegmentID {
	var path []roadnet.SegmentID
	appendSeg := func(s roadnet.SegmentID) {
		if len(path) == 0 || path[len(path)-1] != s {
			path = append(path, s)
		}
	}
	for ai := 1; ai < len(alive); ai++ {
		i, p := alive[ai], alive[ai-1]
		if noRouteTo[i] {
			appendSeg(matched[p].Seg)
			appendSeg(matched[i].Seg)
			continue
		}
		route, ok := m.Router.RouteBetween(matched[p].Pos(), matched[i].Pos())
		if !ok {
			// Unreachable gap: emit both endpoints and continue.
			appendSeg(matched[p].Seg)
			appendSeg(matched[i].Seg)
			continue
		}
		for _, s := range route.Segs {
			appendSeg(s)
		}
	}
	if len(path) == 0 && len(alive) > 0 {
		path = append(path, matched[alive[0]].Seg)
	}
	return path
}

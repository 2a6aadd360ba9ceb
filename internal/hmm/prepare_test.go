package hmm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// routedTrans is the classical Eq. 3 model with the route-preparing fast
// path: its routes are the fan-out's route distances, and both its
// ScoreBatch (inline) and its routes' ScoreBatch score them with
// ExponentialTransition's arithmetic. It counts the routes it prepared
// and those released, and fails t on a second Release; with panicAt > 0
// the panicAt-th PrepareRoutes call panics with errStubPanic.
type routedTrans struct {
	t        *testing.T
	router   *roadnet.Router
	panicAt  int64
	calls    atomic.Int64
	prepared atomic.Int64
	released atomic.Int64
}

type testRoutes struct {
	rt       *routedTrans
	dist     []float64
	ok       []bool
	released bool
}

func (rt *routedTrans) route(from, to []Candidate) *testRoutes {
	r := &testRoutes{rt: rt, dist: make([]float64, len(from)*len(to)), ok: make([]bool, len(from)*len(to))}
	for j := range from {
		for kk := range to {
			p := j*len(to) + kk
			r.dist[p], r.ok[p] = rt.router.RouteDist(from[j].Pos(), to[kk].Pos())
		}
	}
	return r
}

func (rt *routedTrans) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	return (&ExponentialTransition{Router: rt.router, Beta: 200}).Score(ct, i, from, to)
}

func (rt *routedTrans) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	return rt.route(from, to).ScoreBatch(ct, i, from, to, out)
}

func (rt *routedTrans) PrepareRoutes(from, to []Candidate) StepRoutes {
	if rt.calls.Add(1) == rt.panicAt {
		panic(errStubPanic)
	}
	r := rt.route(from, to)
	rt.prepared.Add(1)
	return r
}

func (r *testRoutes) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	straight := ct[i-1].P.Dist(ct[i].P)
	for p := range out {
		out[p] = math.NaN()
		if r.ok[p] {
			out[p] = math.Exp(-math.Abs(straight-r.dist[p]) / 200)
		}
	}
	return 0
}

func (r *testRoutes) Release() {
	if r.released {
		r.rt.t.Error("routes released twice")
	}
	r.released = true
	r.rt.released.Add(1)
}

// routed gives m the route-preparing transition model over its router.
func routed(t *testing.T, m *Matcher) *routedTrans {
	rt := &routedTrans{t: t, router: m.Router}
	m.Trans = rt
	return rt
}

// allReleased fails t unless every route rt prepared was released.
func allReleased(t *testing.T, name string, rt *routedTrans) {
	t.Helper()
	if p, r := rt.prepared.Load(), rt.released.Load(); p != r {
		t.Fatalf("%s: %d routes prepared, %d released", name, p, r)
	}
}

// sequentialMatch is the reference for MatchContext's helper goroutine:
// the same match with each point's layer prepared on the calling
// goroutine, in point order, right before the point's forward step —
// candidates, addLayer, advance, which routes the step inline — then the
// same backward pass. It takes a trajectory that needs no sanitizing.
func sequentialMatch(m *Matcher, ct traj.CellTrajectory) (*Result, error) {
	fw := m.newForward(len(ct))
	for i := range ct {
		layer, err := m.addLayer(&fw.tb, m.candidates(ct, i, fw.es != nil), fw.es, &fw.deg)
		if err != nil {
			return nil, err
		}
		fw.noteLayer(i, layer)
		steps, ss := m.advance(context.Background(), &fw.tb, ct, nil, nil, nil, &fw.deg)
		fw.noteStep(i, layer, steps, ss)
	}
	if len(fw.alive) == 0 {
		return nil, fmt.Errorf("hmm: %w for any of the %d points", ErrNoCandidates, len(ct))
	}
	var st obs.StageTimings
	return m.finish(ct, fw, traj.SanitizeReport{}, &st, func(*float64) func() { return nopStage }), nil
}

// sameMatch fails t unless two outcomes of one match agree: the same
// error text, or Results deep-equal once the stage seconds, the one
// thing two runs do not share, are zeroed.
func sameMatch(t *testing.T, name string, got, want *Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for _, r := range []*Result{got, want} {
		if r.Trace != nil {
			r.Trace.Stages = obs.StageTimings{}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: MatchContext differs from the sequential reference\n got  %+v\n want %+v", name, got, want)
	}
}

// TestPrepareHelperSequentialEquivalent holds MatchContext, whose layers
// — and, with a TransitionRouteModel, each step's routes — come from
// the helper goroutine, to sequentialMatch: the three break policies
// with dead points, explain and trace on, a degraded observation model,
// and the shortcut fixtures of the window oracle, each with the
// pairwise and the route-preparing transition model; and with the
// latter, layers the hmm.candidates.empty failpoint kills on the caller
// after the helper routed the steps into and out of them. Every route
// prepared is released, and no goroutine is left.
func TestPrepareHelperSequentialEquivalent(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(6, 9, 62)
	base := runtime.NumGoroutine()
	runs, prepared := 0, int64(0)
	check := func(name string, m *Matcher, ct traj.CellTrajectory) {
		t.Helper()
		pairwise := m.Trans
		defer func() { m.Trans = pairwise }()
		for _, routes := range []bool{false, true} {
			var rt *routedTrans
			if routes {
				rt = routed(t, m)
			}
			faults := []string{""}
			if routes {
				faults = append(faults, "hmm.candidates.empty:3")
			}
			for _, spec := range faults {
				for _, explain := range []bool{false, true} {
					m.Cfg.Explain, m.Cfg.Trace = explain, explain
					arm := func() {
						faultinject.DisarmAll()
						if err := faultinject.Arm(spec); err != nil {
							t.Fatal(err)
						}
					}
					arm()
					got, gotErr := m.MatchContext(context.Background(), ct)
					arm()
					want, wantErr := sequentialMatch(m, ct)
					faultinject.DisarmAll()
					what := fmt.Sprintf("%s routes=%v faults %q explain=%v", name, routes, spec, explain)
					sameMatch(t, what, got, want, gotErr, wantErr)
					settle(t, base)
					if rt != nil {
						allReleased(t, what, rt)
					}
					if gotErr == nil {
						runs++
					}
				}
			}
			if rt != nil {
				prepared += rt.prepared.Load()
			}
		}
	}
	for w, ct := range walks {
		for _, policy := range []BreakPolicy{BreakError, BreakSkip, BreakSplit} {
			for _, dead := range [][]int{nil, {0}, {w % len(ct)}, {2, 3}, {len(ct) - 1}} {
				m := deadMatcher(net, r, policy, dead...)
				m.Cfg.Shortcuts = w % 3
				check(fmt.Sprintf("walk %d %v dead %v", w, policy, dead), m, ct)
			}
		}
		m := classicMatcher(net, r, 6, 1)
		m.Obs = nanObs{m.Obs}
		check(fmt.Sprintf("walk %d degraded", w), m, ct)
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 32; trial++ {
		m, ct := shortcutTrial(t, rng, trial)
		check(fmt.Sprintf("shortcut trial %d", trial), m, ct)
	}
	if runs < 300 || prepared == 0 {
		t.Fatalf("only %d runs matched, over %d prepared routes", runs, prepared)
	}
}

// settle fails t unless the goroutine count comes back to base: the
// helper closes its channel just before it returns, so it is given a
// moment.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the match, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

var errStubPanic = errors.New("stub observation model panicked")

// panicObs panics at point at, and prepares every other point as the
// model it wraps.
type panicObs struct {
	ObservationModel
	at int
}

func (p panicObs) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	if i == p.at {
		panic(errStubPanic)
	}
	return p.ObservationModel.Candidates(ct, i, k)
}

// TestPrepareHelperPanic: a panic in Candidates, under the pairwise or
// the route-preparing transition model, or in PrepareRoutes, on the
// helper resurfaces on the caller's goroutine with its own value, every
// route prepared before it is released, and the helper is gone.
func TestPrepareHelperPanic(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	for _, at := range []int{0, 1, 2, 4} {
		for _, where := range []string{"candidates, pairwise", "candidates, routed", "routes"} {
			if where == "routes" && at == 0 {
				continue // no step leads into point 0
			}
			base := runtime.NumGoroutine()
			m := classicMatcher(net, r, 5, 1)
			var rt *routedTrans
			if where != "candidates, pairwise" {
				rt = routed(t, m)
			}
			if where == "routes" {
				rt.panicAt = int64(at) // the step into point at is the at-th routed
			} else {
				m.Obs = panicObs{m.Obs, at}
			}
			got := func() (v any) {
				defer func() { v = recover() }()
				m.MatchContext(context.Background(), lineTraj())
				return nil
			}()
			what := fmt.Sprintf("panic at point %d in %s", at, where)
			if got != errStubPanic {
				t.Fatalf("%s: recovered %v, want %v", what, got, errStubPanic)
			}
			settle(t, base)
			if rt != nil {
				allReleased(t, what, rt)
			}
		}
	}
}

// blockObs stalls at point at until ctx is done, telling reached when it
// gets there.
type blockObs struct {
	ObservationModel
	at      int
	ctx     context.Context
	reached chan struct{}
}

func (b blockObs) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	if i == b.at {
		close(b.reached)
		<-b.ctx.Done()
	}
	return b.ObservationModel.Candidates(ct, i, k)
}

// TestPrepareHelperCancel cancels a match while the helper is inside
// Candidates, under the pairwise and the route-preparing transition
// model: the match ends with one "canceled at point" error wrapping
// context.Canceled, at or before the stalled point, every route
// prepared is released, and the helper is gone.
func TestPrepareHelperCancel(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	msg := regexp.MustCompile(`^hmm: match canceled at point (\d+): context canceled$`)
	for _, at := range []int{0, 2, 4} {
		for _, routes := range []bool{false, true} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			reached := make(chan struct{})
			m := classicMatcher(net, r, 5, 1)
			var rt *routedTrans
			if routes {
				rt = routed(t, m)
			}
			m.Obs = blockObs{m.Obs, at, ctx, reached}
			go func() {
				<-reached
				cancel()
			}()
			what := fmt.Sprintf("stall at point %d, routes=%v", at, routes)
			res, err := m.MatchContext(ctx, lineTraj())
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: result %v, error %v; want context.Canceled", what, res, err)
			}
			sub := msg.FindStringSubmatch(err.Error())
			if sub == nil {
				t.Fatalf("%s: error %q", what, err)
			}
			if i, _ := strconv.Atoi(sub[1]); i > at {
				t.Fatalf("%s: canceled at point %d", what, i)
			}
			settle(t, base)
			if rt != nil {
				allReleased(t, what, rt)
			}
		}
	}
}

// slowObs takes a millisecond over each Candidates call and counts the
// calls begun and the calls still running.
type slowObs struct {
	ObservationModel
	begun, running *atomic.Int64
}

func (s slowObs) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	s.begun.Add(1)
	s.running.Add(1)
	defer s.running.Add(-1)
	time.Sleep(time.Millisecond)
	return s.ObservationModel.Candidates(ct, i, k)
}

// TestPrepareHelperBreakError: a dead point under BreakError, with the
// pairwise and the route-preparing transition model, ends the match
// with ErrNoCandidates while the helper may still be preparing
// later points and routing their steps; the helper is stopped and
// joined before MatchContext returns — no Candidates call is running
// then or begins later, an early dead point leaves later points
// unprepared, and every route prepared is released — and is gone.
func TestPrepareHelperBreakError(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := randomWalks(1, 24, 62)[0]
	for _, dead := range []int{0, 1, 3, 12} {
		for _, routes := range []bool{false, true} {
			base := runtime.NumGoroutine()
			var begun, running atomic.Int64
			m := deadMatcher(net, r, BreakError, dead)
			var rt *routedTrans
			if routes {
				rt = routed(t, m)
			}
			m.Obs = slowObs{m.Obs, &begun, &running}
			what := fmt.Sprintf("dead point %d, routes=%v", dead, routes)
			res, err := m.MatchContext(context.Background(), ct)
			n, busy := begun.Load(), running.Load()
			want := fmt.Sprintf("hmm: no candidates for point %d", dead)
			if res != nil || !errors.Is(err, ErrNoCandidates) || err.Error() != want {
				t.Fatalf("%s: result %v, error %v; want %q", what, res, err, want)
			}
			time.Sleep(10 * time.Millisecond)
			if busy != 0 || begun.Load() != n {
				t.Fatalf("%s: %d Candidates calls running at return, %d begun after it", what, busy, begun.Load()-n)
			}
			if dead < 4 && n == int64(len(ct)) {
				t.Fatalf("%s: the helper prepared all %d points; it was not stopped", what, n)
			}
			settle(t, base)
			if rt != nil {
				allReleased(t, what, rt)
			}
		}
	}
}

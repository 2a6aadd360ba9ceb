package hmm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/traj"
)

// sequentialMatch is the reference for MatchContext's helper goroutine:
// the same match with each point's layer prepared on the calling
// goroutine, in point order, right before the point's forward step —
// candidates, addLayer, advance — then the same backward pass. It takes
// a trajectory that needs no sanitizing.
func sequentialMatch(m *Matcher, ct traj.CellTrajectory) (*Result, error) {
	fw := m.newForward(len(ct))
	for i := range ct {
		layer, err := m.addLayer(&fw.tb, m.candidates(ct, i, fw.es != nil), fw.es, &fw.deg)
		if err != nil {
			return nil, err
		}
		fw.noteLayer(i, layer)
		steps, ss := m.advance(context.Background(), &fw.tb, ct, nil, nil, &fw.deg)
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
// come from the helper goroutine, to sequentialMatch: the three break
// policies with dead points, explain and trace on, a degraded
// observation model, and the shortcut fixtures of the window oracle.
func TestPrepareHelperSequentialEquivalent(t *testing.T) {
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(6, 9, 62)
	runs := 0
	check := func(name string, m *Matcher, ct traj.CellTrajectory) {
		t.Helper()
		for _, explain := range []bool{false, true} {
			m.Cfg.Explain, m.Cfg.Trace = explain, explain
			got, gotErr := m.MatchContext(context.Background(), ct)
			want, wantErr := sequentialMatch(m, ct)
			sameMatch(t, name+" explain="+strconv.FormatBool(explain), got, want, gotErr, wantErr)
			if gotErr == nil {
				runs++
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
	if runs < 100 {
		t.Fatalf("only %d runs matched", runs)
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

// TestPrepareHelperPanic: a panic in Candidates on the helper resurfaces
// on the caller's goroutine with its own value, and the helper is gone.
func TestPrepareHelperPanic(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	for _, at := range []int{0, 2, 4} {
		base := runtime.NumGoroutine()
		m := classicMatcher(net, r, 5, 1)
		m.Obs = panicObs{m.Obs, at}
		got := func() (v any) {
			defer func() { v = recover() }()
			m.MatchContext(context.Background(), lineTraj())
			return nil
		}()
		if got != errStubPanic {
			t.Fatalf("panic at point %d: recovered %v, want %v", at, got, errStubPanic)
		}
		settle(t, base)
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
// Candidates: the match ends with one "canceled at point" error
// wrapping context.Canceled, at or before the stalled point, and the
// helper is gone.
func TestPrepareHelperCancel(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	msg := regexp.MustCompile(`^hmm: match canceled at point (\d+): context canceled$`)
	for _, at := range []int{0, 2, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		reached := make(chan struct{})
		m := classicMatcher(net, r, 5, 1)
		m.Obs = blockObs{m.Obs, at, ctx, reached}
		go func() {
			<-reached
			cancel()
		}()
		res, err := m.MatchContext(ctx, lineTraj())
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("stall at point %d: result %v, error %v; want context.Canceled", at, res, err)
		}
		sub := msg.FindStringSubmatch(err.Error())
		if sub == nil {
			t.Fatalf("stall at point %d: error %q", at, err)
		}
		if i, _ := strconv.Atoi(sub[1]); i > at {
			t.Fatalf("stall at point %d: canceled at point %d", at, i)
		}
		settle(t, base)
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

// TestPrepareHelperBreakError: a dead point under BreakError ends the
// match with ErrNoCandidates while the helper may still be preparing
// later points; the helper is stopped and joined before MatchContext
// returns — no Candidates call is running then or begins later, and
// an early dead point leaves later points unprepared — and is gone.
func TestPrepareHelperBreakError(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := randomWalks(1, 24, 62)[0]
	for _, dead := range []int{0, 1, 3, 12} {
		base := runtime.NumGoroutine()
		var begun, running atomic.Int64
		m := deadMatcher(net, r, BreakError, dead)
		m.Obs = slowObs{m.Obs, &begun, &running}
		res, err := m.MatchContext(context.Background(), ct)
		n, busy := begun.Load(), running.Load()
		want := fmt.Sprintf("hmm: no candidates for point %d", dead)
		if res != nil || !errors.Is(err, ErrNoCandidates) || err.Error() != want {
			t.Fatalf("dead point %d: result %v, error %v; want %q", dead, res, err, want)
		}
		time.Sleep(10 * time.Millisecond)
		if busy != 0 || begun.Load() != n {
			t.Fatalf("dead point %d: %d Candidates calls running at return, %d begun after it", dead, busy, begun.Load()-n)
		}
		if dead < 4 && n == int64(len(ct)) {
			t.Fatalf("dead point %d: the helper prepared all %d points; it was not stopped", dead, n)
		}
		settle(t, base)
	}
}

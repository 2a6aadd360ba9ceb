package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func TestStreamMatchesBatchOnEasyTrack(t *testing.T) {
	net, r := gridWorld(t, 8, 3)
	pts := []geo.Point{
		geo.Pt(20, 108), geo.Pt(150, 93), geo.Pt(290, 110),
		geo.Pt(420, 95), geo.Pt(550, 104), geo.Pt(660, 96),
	}
	ct := trajAlong(pts...)

	batch := classicMatcher(net, r, 8, 0)
	batchRes, err := batch.Match(ct)
	if err != nil {
		t.Fatal(err)
	}

	sm := NewStreamMatcher(classicMatcher(net, r, 8, 0), 2)
	var emitted []Candidate
	for _, p := range ct {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, out...)
	}
	emitted = append(emitted, sm.Flush()...)

	if len(emitted) != len(ct) {
		t.Fatalf("stream emitted %d matches for %d points", len(emitted), len(ct))
	}
	// On an unambiguous track the fixed-lag stream agrees with batch.
	for i := range emitted {
		if emitted[i].Seg != batchRes.Matched[i].Seg {
			a := net.Segment(emitted[i].Seg).Midpoint()
			b := net.Segment(batchRes.Matched[i].Seg).Midpoint()
			if math.Abs(a.Y-b.Y) > 1 {
				t.Errorf("point %d: stream %v vs batch %v", i, a, b)
			}
		}
	}
	if len(sm.Matched()) != len(ct) {
		t.Errorf("Matched() = %d", len(sm.Matched()))
	}
	if len(sm.Path()) == 0 {
		t.Error("empty stream path")
	}
}

func TestStreamEmissionTiming(t *testing.T) {
	net, r := gridWorld(t, 8, 3)
	sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 2)
	pts := trajAlong(
		geo.Pt(20, 100), geo.Pt(150, 100), geo.Pt(290, 100), geo.Pt(420, 100), geo.Pt(550, 100),
	)
	var counts []int
	for _, p := range pts {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(out))
	}
	// With lag 2, the first emission happens at the 3rd point.
	if counts[0] != 0 || counts[1] != 0 || counts[2] != 1 {
		t.Errorf("emission schedule = %v, want [0 0 1 ...]", counts)
	}
	rest := sm.Flush()
	if len(rest) != 2 {
		t.Errorf("Flush emitted %d, want 2", len(rest))
	}
	// Flushing again is a no-op.
	if extra := sm.Flush(); len(extra) != 0 {
		t.Errorf("second Flush emitted %d", len(extra))
	}
}

func TestStreamZeroLag(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 0)
	ct := trajAlong(geo.Pt(20, 100), geo.Pt(150, 100))
	out1, err := sm.Push(ct[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 1 {
		t.Fatalf("zero-lag first push emitted %d", len(out1))
	}
	out2, err := sm.Push(ct[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 1 {
		t.Fatalf("zero-lag second push emitted %d", len(out2))
	}
	// Negative lag clamps to zero.
	if sm2 := NewStreamMatcher(classicMatcher(net, r, 5, 0), -3); sm2.Lag != 0 {
		t.Errorf("negative lag = %d", sm2.Lag)
	}
}

func TestStreamFlushEmpty(t *testing.T) {
	net, r := gridWorld(t, 4, 3)
	sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 2)
	if out := sm.Flush(); len(out) != 0 {
		t.Fatalf("empty Flush emitted %d matches", len(out))
	}
	if sm.Pending() != 0 {
		t.Errorf("Pending on empty stream = %d", sm.Pending())
	}
	if len(sm.Matched()) != 0 {
		t.Errorf("Matched on empty stream = %d", len(sm.Matched()))
	}
	// Flushing an empty stream twice stays a no-op.
	if out := sm.Flush(); len(out) != 0 {
		t.Fatalf("second empty Flush emitted %d matches", len(out))
	}
}

func TestStreamLagLargerThanTrajectory(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	pending := obs.Default.Gauge("stream.pending")

	net, r := gridWorld(t, 8, 3)
	sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 10)
	ct := trajAlong(geo.Pt(20, 100), geo.Pt(150, 100), geo.Pt(290, 100))
	for i, p := range ct {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("lag 10 emitted %d matches after %d points", len(out), i+1)
		}
		// The emit-lag gauge tracks the pushed-but-unfinalized count.
		if want := int64(i + 1); pending.Value() != want {
			t.Errorf("pending gauge after push %d = %d, want %d", i+1, pending.Value(), want)
		}
	}
	if sm.Pending() != len(ct) {
		t.Errorf("Pending = %d, want %d", sm.Pending(), len(ct))
	}
	out := sm.Flush()
	if len(out) != len(ct) {
		t.Fatalf("Flush emitted %d, want %d", len(out), len(ct))
	}
	if sm.Pending() != 0 || pending.Value() != 0 {
		t.Errorf("after Flush: Pending=%d gauge=%d, want 0", sm.Pending(), pending.Value())
	}
}

func TestStreamPushAfterViterbiBreak(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	breaks := obs.Default.Counter("stream.breaks")
	before := breaks.Value()

	// A router bound tight enough that the mid-trajectory jump is
	// unreachable from every candidate: the chain breaks and restarts.
	net, _ := gridWorld(t, 14, 3)
	r := roadnet.NewRouter(net, roadnet.WithMaxDist(250))
	sm := NewStreamMatcher(&Matcher{
		Net:    net,
		Router: r,
		Obs:    &GaussianObservation{Net: net, Sigma: 100},
		Trans:  &ExponentialTransition{Router: r, Beta: 200},
		Cfg:    Config{K: 5},
	}, 1)

	pts := trajAlong(
		geo.Pt(20, 100), geo.Pt(150, 100), // cluster A
		geo.Pt(1250, 100), geo.Pt(1300, 100), // far jump: unreachable within 250 m
	)
	var emitted []Candidate
	for _, p := range pts {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatalf("Push after break: %v", err)
		}
		emitted = append(emitted, out...)
	}
	emitted = append(emitted, sm.Flush()...)
	if len(emitted) != len(pts) {
		t.Fatalf("emitted %d matches for %d points", len(emitted), len(pts))
	}
	if got := breaks.Value() - before; got < 1 {
		t.Errorf("stream.breaks delta = %d, want >= 1", got)
	}
	// Matches on both sides of the break stay near their own cluster.
	if a := net.Segment(emitted[1].Seg).Midpoint(); a.X > 600 {
		t.Errorf("pre-break match drifted to %v", a)
	}
	if b := net.Segment(emitted[2].Seg).Midpoint(); b.X < 600 {
		t.Errorf("post-break match drifted to %v", b)
	}
}

// TestStreamConcurrentInstrumented exercises the telemetry layer from
// concurrent streaming pipelines sharing one router (the -race
// acceptance gate for the instrumentation).
func TestStreamConcurrentInstrumented(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	pushes := obs.Default.Counter("stream.pushes")
	before := pushes.Value()

	net, r := gridWorld(t, 10, 4)
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 2)
			y := 100.0 * float64(1+w%2)
			ct := trajAlong(
				geo.Pt(20, y), geo.Pt(150, y), geo.Pt(290, y),
				geo.Pt(420, y), geo.Pt(550, y),
			)
			var n int
			for _, p := range ct {
				out, err := sm.Push(p)
				if err != nil {
					errs[w] = err
					return
				}
				n += len(out)
			}
			n += len(sm.Flush())
			if n != len(ct) {
				errs[w] = fmt.Errorf("emitted %d matches, want %d", n, len(ct))
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if got := pushes.Value() - before; got != workers*5 {
		t.Errorf("stream.pushes delta = %d, want %d", got, workers*5)
	}
}

// TestStreamAndBatchAgreeWithShortcuts: the stream runs the batch
// matcher's forward step, shortcut window included, so at a lag no
// shorter than the trajectory it holds the batch's table entry for entry
// — pseudo-candidates included — and emits the batch's matches and
// Skipped flags, on TestShortcutPassMatchesReference's fixtures.
func TestStreamAndBatchAgreeWithShortcuts(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var adoptions, skipped int
	for trial := 0; trial < 240; trial++ {
		m, ct := shortcutTrial(t, rng, trial)
		name := fmt.Sprintf("trial %d (shortcuts %d, scoring %d, k %d)", trial, m.Cfg.Shortcuts, m.Cfg.Scoring, m.Cfg.K)
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		tb := forwardLattice(t, m, ct)
		sm := NewStreamMatcher(m, len(ct)+rng.Intn(3))
		for i, p := range ct {
			if out, err := sm.Push(p); err != nil || len(out) != 0 {
				t.Fatalf("%s: push %d: %d emitted, err %v", name, i, len(out), err)
			}
		}
		st := sm.ExportState()
		if !reflect.DeepEqual(st.Layers, tb.layers) || !reflect.DeepEqual(st.F, tb.f) || !reflect.DeepEqual(st.Pre, tb.pre) {
			t.Fatalf("%s: stream table\n%+v\n%v\n%v\nbatch\n%+v\n%v\n%v", name, st.Layers, st.F, st.Pre, tb.layers, tb.f, tb.pre)
		}
		if got := sm.Flush(); !reflect.DeepEqual(got, res.Matched) || !slices.Equal(sm.Skipped(), res.Skipped) {
			t.Fatalf("%s: stream emitted %+v skipped %v, batch %+v skipped %v", name, got, sm.Skipped(), res.Matched, res.Skipped)
		}
		adoptions += res.ShortcutAdoptions
		for _, s := range res.Skipped {
			if s {
				skipped++
			}
		}
	}
	t.Logf("%d adoptions, %d points matched to a pseudo-candidate", adoptions, skipped)
	if adoptions == 0 || skipped == 0 {
		t.Fatal("the fixtures adopted no shortcut or skipped no point; want both")
	}
}

// TestSnapshotRestoreMidWindow: a stream exported and rebuilt from its
// state after every push — open shortcut window, pseudo-candidates and
// all — emits, holds and reports exactly what an uninterrupted stream
// does, at lags 0, 1, 2 and past the end of the trajectory.
func TestSnapshotRestoreMidWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type run struct {
		emitted, flushed []Candidate
		skipped          []bool
		state            *StreamState
	}
	stream := func(m *Matcher, ct traj.CellTrajectory, lag int, restore bool) run {
		var r run
		sm := NewStreamMatcher(m, lag)
		for i, p := range ct {
			out, err := sm.Push(p)
			if err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			r.emitted = append(r.emitted, out...)
			if restore {
				if sm, err = NewStreamMatcherFromState(m, sm.ExportState()); err != nil {
					t.Fatalf("restore after push %d: %v", i, err)
				}
			}
		}
		r.flushed = sm.Flush()
		r.skipped, r.state = sm.Skipped(), sm.ExportState()
		return r
	}
	var adoptions int
	for trial := 0; trial < 240; trial++ {
		m, ct := shortcutTrial(t, rng, trial)
		lag := []int{0, 1, 2, len(ct)}[trial/16%4]
		want, got := stream(m, ct, lag, false), stream(m, ct, lag, true)
		// A step table holds NaN where a pair is unreachable: compare it
		// by bits, and everything else with DeepEqual.
		if !slices.EqualFunc(got.state.Steps, want.state.Steps, func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}) {
			t.Fatalf("trial %d (lag %d): restored step table %v, uninterrupted %v", trial, lag, got.state.Steps, want.state.Steps)
		}
		got.state.Steps, want.state.Steps = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (lag %d): restored after every push\n%+v\nuninterrupted\n%+v", trial, lag, got, want)
		}
		for _, l := range want.state.Layers {
			adoptions += len(l) - ownCandidates(l)
		}
	}
	if adoptions == 0 {
		t.Fatal("the fixtures adopted no shortcut")
	}
}

// TestStreamLagZeroOpensNoWindow: at lag 0 a point is final when it is
// pushed, so no shortcut window may rewrite it afterwards. The stream
// keeps no step table and emits what it emits with shortcuts off. With
// shortcuts off no window opens at any lag, so it keeps none there
// either.
func TestStreamLagZeroOpensNoWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 240; trial++ {
		m, ct := shortcutTrial(t, rng, trial)
		off := *m
		off.Cfg.Shortcuts = 0
		with, without, lagged := NewStreamMatcher(m, 0), NewStreamMatcher(&off, 0), NewStreamMatcher(&off, 1)
		for i, p := range ct {
			got, err := with.Push(p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := without.Push(p)
			lagged.Push(p)
			if !reflect.DeepEqual(got, want) || with.ExportState().Steps != nil || lagged.ExportState().Steps != nil {
				t.Fatalf("trial %d push %d: emitted %+v with shortcuts, %+v without; step tables %v at lag 0, %v with shortcuts off at lag 1", trial, i, got, want, with.ExportState().Steps, lagged.ExportState().Steps)
			}
		}
	}
}

package hmm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func streamWithPolicy(net *roadnet.Network, r *roadnet.Router, policy BreakPolicy, lag int, dead ...int) *StreamMatcher {
	m := deadMatcher(net, r, policy, dead...)
	return NewStreamMatcher(m, lag)
}

func pushAll(t *testing.T, s *StreamMatcher, ct traj.CellTrajectory) []Candidate {
	t.Helper()
	var out []Candidate
	for i, p := range ct {
		got, err := s.Push(p)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		out = append(out, got...)
	}
	return append(out, s.Flush()...)
}

// A dead point under BreakError fails its push with ErrNoCandidates but
// stays in the stream as a dead point: the table stays aligned with the
// accepted points, the state exported right after the failure
// restores, and later pushes continue as after any dead gap — emitting
// exactly what a Skip-policy stream emits.
func TestStreamDeadPointErrors(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	want := pushAll(t, streamWithPolicy(net, r, BreakSkip, 1, 2), ct)

	s := streamWithPolicy(net, r, BreakError, 1, 2)
	var got []Candidate
	for i, p := range ct {
		out, err := s.Push(p)
		got = append(got, out...)
		if i != 2 {
			if err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			continue
		}
		if !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("dead push: err = %v, want ErrNoCandidates", err)
		}
		st := s.ExportState()
		if len(st.Points) != 3 || len(st.Layers) != 3 || len(st.F) != 3 || !st.Dead[2] {
			t.Fatalf("after the failed push: %d points, %d layers, %d f, dead %v",
				len(st.Points), len(st.Layers), len(st.F), st.Dead)
		}
		if s, err = NewStreamMatcherFromState(s.M, st); err != nil {
			t.Fatalf("restore after the failed push: %v", err)
		}
	}
	got = append(got, s.Flush()...)
	if len(got) != len(want) {
		t.Fatalf("emitted %d matches, Skip stream %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: emitted %+v, Skip stream %+v", i, got[i], want[i])
		}
	}
	if !s.Dead()[2] || got[2] != (Candidate{}) {
		t.Errorf("point 2: dead %v, emitted %+v; want a dead zero candidate", s.Dead()[2], got[2])
	}
}

func TestStreamDeadPointSkip(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	s := streamWithPolicy(net, r, BreakSkip, 1, 2)
	out := pushAll(t, s, ct)
	if len(out) != len(ct) {
		t.Fatalf("emitted %d matches for %d points", len(out), len(ct))
	}
	if !s.Dead()[2] {
		t.Error("point 2 not marked dead")
	}
	if out[2].Obs != 0 {
		t.Error("dead point emitted a non-zero candidate")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if out[i].Obs <= 0 {
			t.Errorf("alive point %d emitted zero candidate", i)
		}
	}
	if len(s.Gaps()) != 0 {
		t.Errorf("Skip policy recorded gaps: %v", s.Gaps())
	}
	if len(s.Path()) == 0 {
		t.Error("empty path")
	}
}

func TestStreamSplitGaps(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	s := streamWithPolicy(net, r, BreakSplit, 1, 2)
	pushAll(t, s, lineTraj())
	gaps := s.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one", gaps)
	}
	if g := gaps[0]; g.From != 1 || g.To != 3 || g.Reason != GapNoCandidates {
		t.Errorf("gap = %+v, want {1 3 no-candidates}", g)
	}
	if len(s.Path()) == 0 {
		t.Error("empty path")
	}
}

func TestStreamBackToBackDead(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	s := streamWithPolicy(net, r, BreakSplit, 1, 2, 3)
	pushAll(t, s, lineTraj())
	gaps := s.Gaps()
	if len(gaps) != 1 || gaps[0].From != 1 || gaps[0].To != 4 {
		t.Errorf("gaps = %v, want one gap 1 -> 4", gaps)
	}
}

func TestStreamLeadingTrailingDead(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	for _, policy := range []BreakPolicy{BreakSkip, BreakSplit} {
		s := streamWithPolicy(net, r, policy, 1, 0, 4)
		out := pushAll(t, s, lineTraj())
		if len(out) != 5 {
			t.Fatalf("%v: emitted %d matches for 5 points", policy, len(out))
		}
		if !s.Dead()[0] || !s.Dead()[4] {
			t.Errorf("%v: endpoints not marked dead", policy)
		}
		if out[0].Obs != 0 || out[4].Obs != 0 {
			t.Errorf("%v: dead endpoints emitted candidates", policy)
		}
		if len(s.Gaps()) != 0 {
			t.Errorf("%v: gaps = %v, want none for edge dead points", policy, s.Gaps())
		}
	}
}

// TestStreamPendingAcrossBreak checks the emit lag stays consistent
// when a dead point passes through the pending window.
func TestStreamPendingAcrossBreak(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	s := streamWithPolicy(net, r, BreakSkip, 2, 2)
	ct := lineTraj()
	for i, p := range ct {
		if _, err := s.Push(p); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		wantPending := i + 1 - s.emitted
		if got := s.Pending(); got != wantPending || got > s.Lag+1 {
			t.Fatalf("after push %d: pending %d (emitted %d), lag %d", i, got, s.emitted, s.Lag)
		}
	}
	s.Flush()
	if s.Pending() != 0 {
		t.Errorf("pending after flush = %d", s.Pending())
	}
	if len(s.Matched()) != len(ct) {
		t.Errorf("matched %d of %d points", len(s.Matched()), len(ct))
	}
}

func TestStreamSanitize(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	bad := traj.CellPoint{Tower: -1, P: geo.Pt(math.NaN(), 100), T: 60}

	// Strict (the default): push errors, with the text the batch
	// matcher gives for the same points.
	good := traj.CellPoint{Tower: -1, P: geo.Pt(50, 100), T: 60}
	for _, ct := range []traj.CellTrajectory{{bad}, {good, good}} {
		s := NewStreamMatcher(classicMatcher(net, r, 5, 0), 1)
		var err error
		for _, p := range ct {
			if _, err = s.Push(p); err != nil {
				break
			}
		}
		_, berr := classicMatcher(net, r, 5, 0).Match(ct)
		if err == nil || berr == nil || err.Error() != berr.Error() {
			t.Fatalf("strict sanitization: stream error %v, batch error %v", err, berr)
		}
	}

	// Drop: the point is swallowed without consuming a stream index,
	// and a stale timestamp is dropped too.
	m := classicMatcher(net, r, 5, 0)
	m.Cfg.Sanitize = traj.SanitizeDrop
	s := NewStreamMatcher(m, 0)
	ct := lineTraj()
	var emitted int
	for i, p := range ct {
		out, err := s.Push(p)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		emitted += len(out)
		if i == 2 {
			if out, err := s.Push(bad); err != nil || out != nil {
				t.Fatalf("dropped point: out=%v err=%v", out, err)
			}
			stale := traj.CellPoint{Tower: -1, P: geo.Pt(300, 100), T: p.T}
			if out, err := s.Push(stale); err != nil || out != nil {
				t.Fatalf("stale point: out=%v err=%v", out, err)
			}
		}
	}
	emitted += len(s.Flush())
	if emitted != len(ct) {
		t.Errorf("emitted %d matches, want %d (dropped points consume no index)", emitted, len(ct))
	}
	rep := s.Sanitize()
	if rep.BadCoords != 1 || rep.BadTimes != 1 {
		t.Errorf("report = %+v, want 1 bad coord and 1 bad timestamp", rep)
	}
}

// TestStreamMatchesBatchWithDeadPoints cross-checks the streaming
// matcher against the batch matcher on the same dead-point input: with
// a lag covering the whole trajectory, both must choose the same
// candidates.
func TestStreamMatchesBatchWithDeadPoints(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	batch, err := deadMatcher(net, r, BreakSkip, 2).Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	s := streamWithPolicy(net, r, BreakSkip, len(ct), 2)
	out := pushAll(t, s, ct)
	for i := range ct {
		if out[i].Seg != batch.Matched[i].Seg {
			t.Errorf("point %d: stream %d, batch %d", i, out[i].Seg, batch.Matched[i].Seg)
		}
	}
}

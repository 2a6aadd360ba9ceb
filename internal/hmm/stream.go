package hmm

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Streaming telemetry (internal/obs). The pending gauge is the live
// emit lag: points pushed but not yet finalized, aggregated across all
// StreamMatchers reporting into the Default registry.
var (
	obsStreamPushes  = obs.Default.Counter("stream.pushes")
	obsStreamEmitted = obs.Default.Counter("stream.emitted")
	obsStreamBreaks  = obs.Default.Counter("stream.breaks")
	obsStreamErrors  = obs.Default.Counter("stream.errors")
	obsStreamPending = obs.Default.Gauge("stream.pending")
)

// StreamMatcher is an online variant of the matcher: points arrive one
// at a time and matches are emitted with a fixed lag (fixed-lag
// smoothing over the same candidate-graph Viterbi recurrence). A match
// for point i becomes final once point i+Lag has been processed —
// enough look-ahead for the transition evidence to disambiguate, while
// keeping bounded latency for real-time pipelines (SnapNet's setting
// [12]).
//
// It owns the growing table and the emission window and nothing else:
// each push admits the point by traj.SanitizeReport.Admit, the rule
// traj.Sanitize applies to a whole trajectory, then runs MatchContext's
// own forward step on it — prepareLayers, addLayer, then advance, so a
// TransitionBatchModel scores the fan-out in one call here too, and
// Algorithm 2's shortcut window runs as part of the step — and
// MatchContext's own backward pass (walkBack) over the unfinalized
// tail. A push needs its own layer before its step, so it prepares the
// layer inline, where MatchContext prepares its layers on a helper
// goroutine: a stream calls its models on the pushing goroutine only.
//
// The window at point i rewrites only layer i-1 and f[i]/pre[i], and
// at Lag ≥ 1 point i-1 is still unfinalized when point i arrives, so
// the stream runs the same recurrence as the batch matcher. It keeps
// only the step table the next window reads, steps[i]. At Lag 0 point
// i is final as soon as it is pushed, so no window opens: shortcuts
// need Lag ≥ 1. Neither does one with Cfg.Shortcuts == 0. In both cases
// the stream keeps no step table at all.
//
// The matcher's fault-tolerance configuration carries over: the
// Cfg.OnBreak policy decides whether a dead point (no candidates)
// errors the push, is skipped, or opens a stitch gap; Cfg.Sanitize
// applies per point as it arrives; and non-finite model scores degrade
// to the classical Eq. 2/3 fallbacks exactly as in batch mode. Whether
// a push succeeds or fails, the accepted points and the table stay the
// same length.
type StreamMatcher struct {
	M *Matcher
	// Lag is the number of future points observed before a match is
	// finalized. 0 emits greedily per point.
	Lag int

	ct      traj.CellTrajectory
	t       table
	emitted int // points finalized so far
	matched []Candidate
	gaps    []Gap
	srep    traj.SanitizeReport
	lastT   float64
	deg     atomic.Int64
}

// NewStreamMatcher wraps a configured Matcher for streaming use.
func NewStreamMatcher(m *Matcher, lag int) *StreamMatcher {
	if lag < 0 {
		lag = 0
	}
	return &StreamMatcher{M: m, Lag: lag, lastT: math.Inf(-1)}
}

// Push processes the next trajectory point and returns any newly
// finalized matches (zero or one per call in steady state). A dead
// point — no candidates — is absorbed per the configured policy,
// contributing a zero Candidate with Dead()[i] set to the emitted
// stream; under BreakError the push also fails with an error wrapping
// ErrNoCandidates, and later pushes continue past it as past any dead
// gap. A malformed point (non-finite coordinates, non-increasing
// timestamp) errors under strict sanitization, with the error text
// MatchContext gives, and is dropped entirely — no index is consumed —
// under drop mode.
func (s *StreamMatcher) Push(p traj.CellPoint) ([]Candidate, error) {
	keep, err := s.srep.Admit(s.M.Cfg.Sanitize, len(s.ct), p, &s.lastT)
	if err != nil {
		obsStreamErrors.Inc()
		return nil, fmt.Errorf("hmm: %w", err)
	}
	if !keep {
		obsSanitizedPts.Inc()
		return nil, nil
	}
	obsStreamPushes.Inc()
	s.ct = append(s.ct, p)
	var deg int64
	defer func() {
		s.deg.Add(deg)
		obsMatchDegraded.Add(deg)
	}()
	var prep layerPrep
	s.M.prepareLayers(context.TODO(), s.ct, len(s.ct)-1, false, nil, func(q layerPrep) bool {
		prep = q
		return true
	})
	layer, err := s.M.addLayer(&s.t, prep, nil, &deg)
	steps, st := s.M.advance(context.TODO(), &s.t, s.ct, nil, nil, nil, &deg)
	st.shortcuts.flush()
	if i := len(s.t.steps) - 1; i > 0 {
		s.t.steps[i-1] = nil // its window is closed
	}
	if s.Lag == 0 || s.M.Cfg.Shortcuts == 0 {
		s.t.steps[len(s.t.steps)-1] = nil // no window can open
	}
	switch {
	case err != nil:
		obsStreamErrors.Inc()
		return nil, err
	case layer == nil:
		obsDeadPoints.Inc()
	case steps != nil && st.restarts == len(layer):
		// The chain broke here: every candidate restarted from its
		// observation score (the streaming analogue of the batch
		// matcher's break-and-recover event).
		obsStreamBreaks.Inc()
	}
	return s.emitUpTo(len(s.ct) - 1 - s.Lag), nil
}

// Flush finalizes all remaining points and returns their matches.
func (s *StreamMatcher) Flush() []Candidate { return s.emitUpTo(len(s.ct) - 1) }

// Pending returns the current emit lag: points pushed but not yet
// finalized. It grows toward Lag during warm-up, holds at Lag in
// steady state, and Flush drives it to zero.
func (s *StreamMatcher) Pending() int { return len(s.ct) - s.emitted }

// emitUpTo finalizes matches for points [emitted, until] by
// backtracking from the current best terminal candidate, no further
// back than the first unfinalized point. Dead points emit a zero
// Candidate; under the Split policy, chain breaks whose entry point
// falls inside the newly finalized window are recorded as Gaps (each
// boundary exactly once, since the window only advances).
func (s *StreamMatcher) emitUpTo(until int) []Candidate {
	var out []Candidate
	if until >= s.emitted {
		out = make([]Candidate, until-s.emitted+1)
		var onBreak func(Gap)
		if s.M.Cfg.OnBreak == BreakSplit {
			onBreak = func(g Gap) {
				if g.To <= until {
					s.gaps = append(s.gaps, g)
					obsMatchGaps.Inc()
				}
			}
		}
		walkBack(s.t.f, s.t.pre, s.t.dead, s.emitted, func(i, idx int) {
			if i <= until {
				out[i-s.emitted] = s.t.layers[i][idx]
			}
		}, onBreak)
		s.matched = append(s.matched, out...)
		s.emitted = until + 1
	}
	obsStreamEmitted.Add(int64(len(out)))
	obsStreamPending.Set(int64(s.Pending()))
	return out
}

// Matched returns all finalized matches so far. Indices align with the
// accepted (pushed and not sanitizer-dropped) points; dead points hold
// a zero Candidate.
func (s *StreamMatcher) Matched() []Candidate { return s.matched }

// Dead reports which accepted points had no candidates (under
// BreakError, each of them also failed its push).
func (s *StreamMatcher) Dead() []bool { return s.t.dead }

// Skipped reports which finalized points were matched to a shortcut
// pseudo-candidate (Result.Skipped's meaning), index-aligned with
// Matched: a fresh slice of each match's Pseudo flag.
func (s *StreamMatcher) Skipped() []bool {
	out := make([]bool, len(s.matched))
	for i := range s.matched {
		out[i] = s.matched[i].Pseudo
	}
	return out
}

// Gaps returns the stitch boundaries finalized so far, in emit order
// (Split policy only). Gaps were appended as the backtrack walked each
// finalized window right-to-left, so within a window they appear in
// reverse trajectory order.
func (s *StreamMatcher) Gaps() []Gap { return s.gaps }

// Degraded returns how many scoring events fell back to the classical
// Eq. 2/3 models because a model returned NaN/Inf.
func (s *StreamMatcher) Degraded() int { return int(s.deg.Load()) }

// Sanitize reports the points dropped so far by drop-mode per-point
// sanitization (those points consume no stream index).
func (s *StreamMatcher) Sanitize() traj.SanitizeReport { return s.srep }

// Path expands the finalized matches into a connected traveled path.
// Under Split, the path is not routed across recorded Gaps.
func (s *StreamMatcher) Path() []roadnet.SegmentID {
	alive := make([]int, 0, len(s.matched))
	for i := range s.matched {
		if !s.t.dead[i] {
			alive = append(alive, i)
		}
	}
	noRouteTo := make(map[int]bool, len(s.gaps))
	for _, g := range s.gaps {
		noRouteTo[g.To] = true
	}
	return s.M.expandPath(s.matched, alive, noRouteTo)
}

package hmm

import (
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
// The matcher's fault-tolerance configuration carries over: the
// Cfg.OnBreak policy decides whether a dead point (no candidates)
// errors the push, is skipped, or opens a stitch gap; Cfg.Sanitize
// applies per point as it arrives; and non-finite model scores degrade
// to the classical Eq. 2/3 fallbacks exactly as in batch mode.
//
// Shortcuts are not applied in streaming mode: Algorithm 2 revises
// earlier table entries, which would contradict already-emitted
// matches. Use the batch Matcher when offline accuracy matters most.
type StreamMatcher struct {
	M *Matcher
	// Lag is the number of future points observed before a match is
	// finalized. 0 emits greedily per point.
	Lag int

	ct      traj.CellTrajectory
	layers  [][]Candidate
	f       [][]float64
	pre     [][]int
	dead    []bool
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
// point — no candidates — errors under the BreakError policy and is
// otherwise absorbed per the configured policy, contributing a zero
// Candidate with Dead()[i] set to the emitted stream. A malformed
// point (non-finite coordinates, non-increasing timestamp) errors
// under strict sanitization and is dropped entirely — no index is
// consumed — under drop mode.
func (s *StreamMatcher) Push(p traj.CellPoint) ([]Candidate, error) {
	switch s.M.Cfg.Sanitize {
	case traj.SanitizeOff:
	default:
		bad, why := "", ""
		if !traj.FinitePoint(p) {
			bad, why = "non-finite coordinates or timestamp", "coords"
		} else if p.T <= s.lastT {
			bad, why = fmt.Sprintf("timestamp %v does not increase over %v", p.T, s.lastT), "time"
		}
		if bad != "" {
			if s.M.Cfg.Sanitize == traj.SanitizeStrict {
				obsStreamErrors.Inc()
				return nil, fmt.Errorf("hmm: stream: point %d: %s", len(s.ct), bad)
			}
			if why == "coords" {
				s.srep.BadCoords++
			} else {
				s.srep.BadTimes++
			}
			obsSanitizedPts.Inc()
			return nil, nil
		}
		s.lastT = p.T
	}
	obsStreamPushes.Inc()
	s.ct = append(s.ct, p)
	i := len(s.ct) - 1
	k := s.M.Cfg.K
	if k <= 0 {
		k = 30
	}
	layer := s.M.Obs.Candidates(s.ct, i, k)
	if fpDeadCandidates.Fail() {
		layer = nil
	}
	for j := range layer {
		if o := layer[j].Obs; math.IsNaN(o) || math.IsInf(o, 0) {
			layer[j].Obs = s.M.fallbackObs(layer[j].Dist)
			s.deg.Add(1)
			obsMatchDegraded.Inc()
		}
	}
	if len(layer) == 0 {
		if s.M.Cfg.OnBreak == BreakError {
			obsStreamErrors.Inc()
			return nil, fmt.Errorf("hmm: stream: no candidates for point %d", i)
		}
		// Dead point: consume the index with placeholder state so the
		// emitted stream stays aligned with the pushed points.
		s.layers = append(s.layers, nil)
		s.f = append(s.f, nil)
		s.pre = append(s.pre, nil)
		s.dead = append(s.dead, true)
		obsDeadPoints.Inc()
		out := s.emitUpTo(len(s.ct) - 1 - s.Lag)
		obsStreamEmitted.Add(int64(len(out)))
		obsStreamPending.Set(int64(s.Pending()))
		return out, nil
	}
	s.dead = append(s.dead, false)
	s.layers = append(s.layers, layer)
	f := make([]float64, len(layer))
	pre := make([]int, len(layer))
	pa := s.prevAlive(i)
	switch {
	case pa < 0:
		// First alive point.
		for j := range layer {
			f[j] = s.M.accum(layer[j].Obs)
			pre[j] = -1
		}
	case pa != i-1:
		// Dead gap immediately behind: no transition evidence bridges
		// it, so the chain restarts from fresh observation scores.
		for j := range layer {
			f[j] = s.M.accum(layer[j].Obs)
			pre[j] = -1
		}
	default:
		restarts := 0
		var deg int64
		for kk := range layer {
			best, bestJ := math.Inf(-1), -1
			for j := range s.layers[i-1] {
				if math.IsInf(s.f[i-1][j], -1) {
					continue
				}
				w, ok := s.M.stepScore(s.ct, i, &s.layers[i-1][j], &layer[kk], &deg)
				if !ok {
					continue
				}
				if sc := s.f[i-1][j] + w; sc > best {
					best, bestJ = sc, j
				}
			}
			if bestJ < 0 {
				f[kk] = s.M.accum(layer[kk].Obs)
				pre[kk] = -1
				restarts++
				continue
			}
			f[kk] = best
			pre[kk] = bestJ
		}
		s.deg.Add(deg)
		if restarts == len(layer) {
			// The chain broke here: every candidate restarted from its
			// observation score (the streaming analogue of the batch
			// matcher's break-and-recover event).
			obsStreamBreaks.Inc()
		}
	}
	s.f = append(s.f, f)
	s.pre = append(s.pre, pre)

	out := s.emitUpTo(len(s.ct) - 1 - s.Lag)
	obsStreamEmitted.Add(int64(len(out)))
	obsStreamPending.Set(int64(s.Pending()))
	return out, nil
}

// prevAlive returns the last alive index before i, or -1.
func (s *StreamMatcher) prevAlive(i int) int {
	for p := i - 1; p >= 0; p-- {
		if !s.dead[p] {
			return p
		}
	}
	return -1
}

// Flush finalizes all remaining points and returns their matches.
func (s *StreamMatcher) Flush() []Candidate {
	out := s.emitUpTo(len(s.ct) - 1)
	obsStreamEmitted.Add(int64(len(out)))
	obsStreamPending.Set(int64(s.Pending()))
	return out
}

// Pending returns the current emit lag: points pushed but not yet
// finalized. It grows toward Lag during warm-up, holds at Lag in
// steady state, and Flush drives it to zero.
func (s *StreamMatcher) Pending() int { return len(s.ct) - s.emitted }

// emitUpTo finalizes matches for points [emitted, until] by
// backtracking from the current best terminal candidate. Dead points
// emit a zero Candidate; under the Split policy, chain breaks whose
// entry point falls inside the newly finalized window are recorded as
// Gaps (each boundary exactly once, since the window only advances).
func (s *StreamMatcher) emitUpTo(until int) []Candidate {
	if until < s.emitted || len(s.ct) == 0 {
		return nil
	}
	split := s.M.Cfg.OnBreak == BreakSplit
	argmaxF := func(i int) int {
		best, idx := math.Inf(-1), 0
		for j, v := range s.f[i] {
			if v > best {
				best, idx = v, j
			}
		}
		return idx
	}
	last := len(s.ct) - 1
	for last >= 0 && s.dead[last] {
		last--
	}
	chain := make([]int, len(s.ct))
	for i := range chain {
		chain[i] = -1
	}
	if last >= 0 {
		idx := argmaxF(last)
		i := last
		for i >= 0 {
			chain[i] = idx
			p := s.prevAlive(i)
			if p < 0 {
				break
			}
			inWindow := i >= s.emitted && i <= until
			if p != i-1 {
				if split && inWindow {
					s.gaps = append(s.gaps, Gap{From: p, To: i, Reason: GapNoCandidates})
					obsMatchGaps.Inc()
				}
				idx = argmaxF(p)
			} else if next := s.pre[i][idx]; next < 0 {
				if split && inWindow {
					s.gaps = append(s.gaps, Gap{From: p, To: i, Reason: GapViterbiBreak})
					obsMatchGaps.Inc()
				}
				idx = argmaxF(p)
			} else {
				idx = next
			}
			i = p
		}
	}
	var out []Candidate
	for i := s.emitted; i <= until; i++ {
		var c Candidate
		if !s.dead[i] && chain[i] >= 0 {
			c = s.layers[i][chain[i]]
		}
		s.matched = append(s.matched, c)
		out = append(out, c)
	}
	s.emitted = until + 1
	return out
}

// Matched returns all finalized matches so far. Indices align with the
// accepted (pushed and not sanitizer-dropped) points; dead points hold
// a zero Candidate.
func (s *StreamMatcher) Matched() []Candidate { return s.matched }

// Dead reports which accepted points had no candidates (only possible
// under the Skip/Split policies).
func (s *StreamMatcher) Dead() []bool { return s.dead }

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
		if !s.dead[i] {
			alive = append(alive, i)
		}
	}
	noRouteTo := make(map[int]bool, len(s.gaps))
	for _, g := range s.gaps {
		noRouteTo[g.To] = true
	}
	return s.M.expandPath(s.matched, alive, noRouteTo)
}

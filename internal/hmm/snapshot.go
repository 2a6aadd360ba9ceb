package hmm

import (
	"fmt"
	"math"

	"repro/internal/traj"
)

// This file makes StreamMatcher state a first-class, portable artifact:
// ExportState lifts the complete in-flight matching state into an
// exported value and NewStreamMatcherFromState rebuilds a matcher that
// continues exactly where the exported one stopped. The serving layer's
// session checkpointer serializes the exported state (together with the
// learned session's caches, internal/core) so a crash, restart, or
// handover never loses an in-flight trajectory: a restored matcher
// pushed the remaining points produces output byte-identical to an
// uninterrupted run, because the Viterbi recurrence is deterministic in
// its table (f, pre) and the table round-trips bit-exactly.

// StreamState is the complete serializable state of a StreamMatcher
// mid-stream. All index invariants of the live matcher hold: Points,
// Layers, F, Pre, and Dead are index-aligned per accepted point; dead
// points hold nil Layers/F/Pre rows; a layer's shortcut pseudo-
// candidates follow its own candidates, and the last layer has none;
// Matched has exactly Emitted entries.
//
// ExportState returns views, not deep copies: the exported slices alias
// the matcher's live state and are only consistent while the matcher is
// not pushed. Callers that serialize asynchronously must either encode
// before releasing the lock that serializes pushes, or deep-copy.
type StreamState struct {
	// Lag is the matcher's fixed emission lag.
	Lag int
	// Points are the accepted (pushed and not sanitizer-dropped) points.
	Points traj.CellTrajectory
	// Layers holds the candidate layer per point (nil for dead points).
	Layers [][]Candidate
	// F and Pre are the Viterbi forward scores and backpointers per
	// point, index-aligned with Layers (Pre[i][j] indexes Layers[i-1];
	// -1 marks a chain restart).
	F [][]float64
	// Pre holds per-candidate backpointers (see F).
	Pre [][]int
	// Steps is the step table of the open shortcut window, into the
	// last point: one row per own (non-pseudo) candidate of point n-2,
	// one column per candidate of point n-1. Nil when no window is
	// open (a chain start, a dead point) or none can open (lag 0, or
	// the matcher's Cfg.Shortcuts is 0).
	Steps [][]float64
	// Dead marks accepted points that had no candidates.
	Dead []bool
	// Emitted is how many points have been finalized so far.
	Emitted int
	// Matched are the finalized matches (len == Emitted).
	Matched []Candidate
	// Gaps are the stitch boundaries finalized so far (Split policy).
	Gaps []Gap
	// Sanitize is the drop-mode sanitization report.
	Sanitize traj.SanitizeReport
	// LastT is the last accepted timestamp (-Inf before the first, and
	// always under SanitizeOff).
	LastT float64
	// Degraded counts scoring events that fell back to the classical
	// Eq. 2/3 models so far.
	Degraded int64
}

// ExportState exports the matcher's complete resumable state. See
// StreamState for the aliasing contract.
func (s *StreamMatcher) ExportState() *StreamState {
	var steps [][]float64
	if n := len(s.t.steps); n > 0 {
		steps = s.t.steps[n-1]
	}
	return &StreamState{
		Lag:      s.Lag,
		Points:   s.ct,
		Layers:   s.t.layers,
		F:        s.t.f,
		Pre:      s.t.pre,
		Steps:    steps,
		Dead:     s.t.dead,
		Emitted:  s.emitted,
		Matched:  s.matched,
		Gaps:     s.gaps,
		Sanitize: s.srep,
		LastT:    s.lastT,
		Degraded: s.deg.Load(),
	}
}

// NewStreamMatcherFromState rebuilds a StreamMatcher over m that
// resumes exactly at st. The state is validated structurally (aligned
// lengths, in-range backpointers and gap indices) so a corrupted or
// hand-built state errors here instead of panicking mid-push. The
// matcher takes ownership of the state's slices.
func NewStreamMatcherFromState(m *Matcher, st *StreamState) (*StreamMatcher, error) {
	if err := validateStreamState(st); err != nil {
		return nil, err
	}
	s := NewStreamMatcher(m, st.Lag)
	s.ct = st.Points
	s.t = table{layers: st.Layers, f: st.F, pre: st.Pre, dead: st.Dead, steps: make([][][]float64, len(st.Points))}
	if st.Steps != nil {
		s.t.steps[len(st.Points)-1] = st.Steps
	}
	s.emitted, s.matched, s.gaps = st.Emitted, st.Matched, st.Gaps
	s.srep, s.lastT = st.Sanitize, st.LastT
	s.deg.Store(st.Degraded)
	return s, nil
}

// ownCandidates is the number of a layer's own candidates: those before
// its first pseudo-candidate.
func ownCandidates(layer []Candidate) int {
	for j := range layer {
		if layer[j].Pseudo {
			return j
		}
	}
	return len(layer)
}

// validateStreamState checks every structural invariant a live matcher
// maintains, so restored state can be trusted by the push/emit paths.
func validateStreamState(st *StreamState) error {
	n := len(st.Points)
	if len(st.Layers) != n || len(st.F) != n || len(st.Pre) != n || len(st.Dead) != n {
		return fmt.Errorf("hmm: stream state: misaligned arrays: %d points, %d layers, %d f, %d pre, %d dead",
			n, len(st.Layers), len(st.F), len(st.Pre), len(st.Dead))
	}
	if st.Lag < 0 {
		return fmt.Errorf("hmm: stream state: negative lag %d", st.Lag)
	}
	if st.Emitted < 0 || st.Emitted > n {
		return fmt.Errorf("hmm: stream state: emitted %d out of range for %d points", st.Emitted, n)
	}
	if len(st.Matched) != st.Emitted {
		return fmt.Errorf("hmm: stream state: %d matched entries for %d emitted points", len(st.Matched), st.Emitted)
	}
	for i := 0; i < n; i++ {
		nc := len(st.Layers[i])
		if st.Dead[i] && nc != 0 {
			return fmt.Errorf("hmm: stream state: dead point %d has %d candidates", i, nc)
		}
		if !st.Dead[i] && nc == 0 {
			return fmt.Errorf("hmm: stream state: alive point %d has no candidates", i)
		}
		if len(st.F[i]) != nc || len(st.Pre[i]) != nc {
			return fmt.Errorf("hmm: stream state: point %d: %d candidates, %d scores, %d backpointers",
				i, nc, len(st.F[i]), len(st.Pre[i]))
		}
		own := ownCandidates(st.Layers[i])
		for j := own; j < nc; j++ {
			if !st.Layers[i][j].Pseudo || i == n-1 {
				return fmt.Errorf("hmm: stream state: point %d candidate %d: pseudo-candidates must end a layer before the last", i, j)
			}
		}
		prev := 0
		if i > 0 {
			prev = len(st.Layers[i-1])
		}
		for j, p := range st.Pre[i] {
			if p < -1 || (i == 0 && p >= 0) || p >= prev {
				return fmt.Errorf("hmm: stream state: point %d candidate %d: backpointer %d out of range (prev layer %d)",
					i, j, p, prev)
			}
		}
	}
	if len(st.Steps) > 0 {
		if st.Lag == 0 || n < 2 || st.Dead[n-1] || len(st.Steps) != ownCandidates(st.Layers[n-2]) {
			return fmt.Errorf("hmm: stream state: step table of %d rows does not fit the layer before the last at lag %d", len(st.Steps), st.Lag)
		}
		for j, row := range st.Steps {
			if len(row) != len(st.Layers[n-1]) {
				return fmt.Errorf("hmm: stream state: step table row %d has %d columns for %d candidates", j, len(row), len(st.Layers[n-1]))
			}
		}
	}
	for _, g := range st.Gaps {
		if g.From < 0 || g.To <= g.From || g.To >= n {
			return fmt.Errorf("hmm: stream state: gap [%d,%d] out of range for %d points", g.From, g.To, n)
		}
		if g.Reason != GapNoCandidates && g.Reason != GapViterbiBreak {
			return fmt.Errorf("hmm: stream state: gap [%d,%d]: unknown reason %d", g.From, g.To, int(g.Reason))
		}
	}
	if math.IsNaN(st.LastT) {
		return fmt.Errorf("hmm: stream state: NaN last timestamp")
	}
	if st.Degraded < 0 {
		return fmt.Errorf("hmm: stream state: negative degraded count %d", st.Degraded)
	}
	return nil
}

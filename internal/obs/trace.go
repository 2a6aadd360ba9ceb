package obs

import "time"

// MatchTrace is the per-trajectory diagnostic record the batch matcher
// fills when tracing is requested: per-point candidate and score
// statistics, Viterbi break-and-recover events, shortcut activity, and
// wall-clock per pipeline stage. It is built single-threaded inside one
// Match call and is safe to read once returned.
type MatchTrace struct {
	// Points holds one record per trajectory point.
	Points []PointTrace `json:"points"`
	// Breaks lists the point indices where the Viterbi chain broke —
	// every candidate of the layer was unreachable from the previous
	// layer and scoring restarted (the recover half of the event).
	Breaks []int `json:"breaks,omitempty"`
	// ShortcutAttempts counts candidate pairs Algorithm 2 examined;
	// ShortcutAdoptions how many improved the table.
	ShortcutAttempts  int `json:"shortcut_attempts"`
	ShortcutAdoptions int `json:"shortcut_adoptions"`
	// Stages records wall-clock seconds per pipeline stage.
	Stages StageTimings `json:"stages"`
}

// PointTrace is the per-point slice of a MatchTrace.
type PointTrace struct {
	// Candidates is the prepared candidate-set size (before shortcut
	// pseudo-candidates).
	Candidates int `json:"candidates"`
	// BestObs and MeanObs summarize the emission scores of the set.
	BestObs float64 `json:"best_obs"`
	MeanObs float64 `json:"mean_obs"`
	// TransEvaluated counts transition-model calls into this point;
	// TransReachable how many returned a feasible movement.
	TransEvaluated int `json:"trans_evaluated"`
	TransReachable int `json:"trans_reachable"`
	// Restarts counts candidates of this point whose predecessors were
	// all unreachable (partial breaks).
	Restarts int `json:"restarts,omitempty"`
	// Skipped marks points the shortcut optimization bypassed.
	Skipped bool `json:"skipped,omitempty"`
}

// StageTimings is wall-clock seconds per matching stage. TransitionS
// is the transition-fill portion of ViterbiS (nested, not additive
// with it); the other stages partition TotalS. A batch match prepares
// its candidate layers, and with a route-preparing transition model the
// shortest-path walks of each step into them, on a helper goroutine
// while the forward pass runs, so CandidatesS is the time the forward
// pass waited for them: the part of that preparation the overlap did
// not hide (the learned matcher's "observation" span has the
// observation side's busy time). TransitionS then holds no routing; a
// stream push still routes inside it.
type StageTimings struct {
	CandidatesS float64 `json:"candidates_s"`
	ViterbiS    float64 `json:"viterbi_s"`
	TransitionS float64 `json:"transition_s"`
	ShortcutsS  float64 `json:"shortcuts_s"`
	BacktrackS  float64 `json:"backtrack_s"`
	ExpandS     float64 `json:"expand_s"`
	TotalS      float64 `json:"total_s"`
}

// NewMatchTrace allocates a trace for an n-point trajectory.
func NewMatchTrace(n int) *MatchTrace {
	return &MatchTrace{Points: make([]PointTrace, n)}
}

// AddBreak records a full Viterbi break at point i.
func (t *MatchTrace) AddBreak(i int) {
	if t == nil {
		return
	}
	t.Breaks = append(t.Breaks, i)
}

// TotalCandidates sums the per-point candidate-set sizes.
func (t *MatchTrace) TotalCandidates() int {
	if t == nil {
		return 0
	}
	var n int
	for i := range t.Points {
		n += t.Points[i].Candidates
	}
	return n
}

// SkippedPoints counts points the shortcut optimization bypassed.
func (t *MatchTrace) SkippedPoints() int {
	if t == nil {
		return 0
	}
	var n int
	for i := range t.Points {
		if t.Points[i].Skipped {
			n++
		}
	}
	return n
}

// StageTimer measures one stage into a StageTimings field. Usage:
//
//	done := obs.Stage(&trace.Stages.ViterbiS)
//	... stage work ...
//	done()
//
// A nil target yields a no-op timer, so untraced calls skip the clock
// reads entirely.
func Stage(target *float64) func() {
	if target == nil {
		return func() {}
	}
	start := time.Now()
	return func() { *target += time.Since(start).Seconds() }
}

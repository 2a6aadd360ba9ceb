package hmm

import (
	"math"
	"sort"

	"repro/internal/traj"
)

// Decision-level explainability. With Config.Explain set, the matcher
// assembles an Explain artifact alongside the Result: per point, the
// top-k candidates with their emission-score breakdown (the learned
// score next to the classical Eq. 2 Gaussian it would fall back to),
// the chosen Viterbi backpointer with its step score and route, and
// the log-score margin between the chosen candidate and the runner-up
// — the per-decision confidence signal that low-confidence-region
// analyses and the continuous-learning loop consume. Everything here
// reads the Viterbi tables the match already built; the only extra
// model work is re-scoring the handful of chosen transitions whose
// memoized entries were displaced by shortcut pseudo-candidates.

// explainMarginCap bounds the reported margin so an unopposed decision
// (no runner-up, or a runner-up at zero probability) stays JSON-finite.
const explainMarginCap = 50

// explainLowMargin is the margin (nats) below which a decision is
// flagged low-confidence.
const explainLowMargin = 0.05

// Explain is the per-match decision explanation artifact.
type Explain struct {
	// TopK is the per-point candidate breakdown bound that was applied.
	TopK int `json:"top_k"`
	// MarginThreshold is the low-confidence margin (in nats) below
	// which a decision is flagged.
	MarginThreshold float64 `json:"margin_threshold"`
	// LowMarginDecisions counts flagged decisions across the match.
	LowMarginDecisions int `json:"low_margin_decisions"`
	// Points holds one entry per trajectory point, in order.
	Points []ExplainPoint `json:"points"`
}

// ExplainPoint explains the decision at one trajectory point.
type ExplainPoint struct {
	Index int `json:"index"`
	// Dead marks a point that had no candidates; it carries no
	// breakdown or choice.
	Dead bool `json:"dead,omitempty"`
	// Candidates is the top-k emission breakdown (the chosen candidate
	// is always included, even outside the top-k).
	Candidates []ExplainCandidate `json:"candidates,omitempty"`
	// Chosen explains the Viterbi decision (nil for dead points).
	Chosen *ExplainChoice `json:"chosen,omitempty"`
}

// ExplainCandidate is one candidate road's emission-score breakdown.
type ExplainCandidate struct {
	Seg  int     `json:"seg"`
	Dist float64 `json:"dist_m"`
	// Obs is the emission probability Viterbi saw: the learned P_O, or
	// the classical fallback when Fallback is set.
	Obs float64 `json:"obs"`
	// ClassicalObs is the Eq. 2 Gaussian of Dist — what the classical
	// HMM would have scored. The Obs/ClassicalObs gap is the learned
	// model's per-candidate contribution.
	ClassicalObs float64 `json:"classical_obs"`
	// Fallback marks a candidate whose learned score was non-finite,
	// so Obs IS ClassicalObs (a degraded-mode scoring event).
	Fallback bool `json:"fallback,omitempty"`
	// Chosen marks the candidate the backward pass selected.
	Chosen bool `json:"chosen,omitempty"`
}

// ExplainChoice explains the chosen candidate and the transition that
// led to it.
type ExplainChoice struct {
	Seg int `json:"seg"`
	// Pseudo marks a shortcut-synthesized candidate (Eq. 21's
	// projected road; not part of the original candidate set).
	Pseudo bool `json:"pseudo,omitempty"`
	// Score is the accumulated Viterbi score f of the chosen candidate
	// at this point.
	Score float64 `json:"score"`
	// Margin is the log-score margin (nats) between the chosen
	// candidate's accumulated score and the best alternative's at this
	// point — the decision confidence. Negative means the chain chose
	// a locally suboptimal candidate for global consistency; capped at
	// ±50 (an unopposed decision reports the cap).
	Margin float64 `json:"margin"`
	// Unopposed marks a single-candidate layer (no runner-up existed).
	Unopposed bool `json:"unopposed,omitempty"`
	// LowMargin flags Margin < MarginThreshold.
	LowMargin bool `json:"low_margin,omitempty"`
	// PrevSeg is the chosen predecessor road at the previous point, or
	// -1 when the chain (re)starts here — first point, dead gap, or
	// Viterbi break.
	PrevSeg int `json:"prev_seg"`
	// TransScore is the memoized step weight W = accum(P_T·P_O) of the
	// chosen transition (absent at chain starts).
	TransScore float64 `json:"trans_score,omitempty"`
	// Route is the road-segment route of the chosen transition.
	Route []int `json:"route,omitempty"`
}

// explainState carries the per-match collection the assembly needs
// beyond the Viterbi tables: which original candidates fell back to
// the classical emission, and which candidate index the backward pass
// chose per point. Allocated only when Config.Explain is set.
type explainState struct {
	topK     int
	fellback [][]bool // aligned with the original (pre-shortcut) layers
	chosen   []int    // index into layers[i]; -1 where dead
}

func newExplainState(n, topK int) *explainState {
	if topK <= 0 {
		topK = 5
	}
	st := &explainState{
		topK:     topK,
		fellback: make([][]bool, n),
		chosen:   make([]int, n),
	}
	for i := range st.chosen {
		st.chosen[i] = -1
	}
	return st
}

// finiteOr maps NaN/Inf to a JSON-safe fallback.
func finiteOr(v, def float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return def
	}
	return v
}

// buildExplain assembles the Explain artifact from the finished match
// state. It returns the artifact plus the decision/low-margin counts
// for the telemetry flush.
func (m *Matcher) buildExplain(ct traj.CellTrajectory, es *explainState,
	layers, keep [][]Candidate, f [][]float64, pre [][]int, steps [][][]float64,
	dead []bool, alive []int) (*Explain, int64, int64) {

	ex := &Explain{
		TopK:            es.topK,
		MarginThreshold: explainLowMargin,
		Points:          make([]ExplainPoint, len(layers)),
	}
	var decisions, lowMargin int64
	prevAlive := make([]int, len(layers)) // previous alive index per point; -1 for the first
	for i := range prevAlive {
		prevAlive[i] = -1
	}
	for ai := 1; ai < len(alive); ai++ {
		prevAlive[alive[ai]] = alive[ai-1]
	}

	for i := range layers {
		pt := ExplainPoint{Index: i}
		if dead[i] || es.chosen[i] < 0 {
			pt.Dead = true
			ex.Points[i] = pt
			continue
		}
		decisions++
		chosen := es.chosen[i]
		cand := &layers[i][chosen]

		// Top-k emission breakdown over the original candidate set,
		// with the chosen candidate always included.
		order := make([]int, len(keep[i]))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool {
			return keep[i][order[a]].Obs > keep[i][order[b]].Obs
		})
		take := es.topK
		if take > len(order) {
			take = len(order)
		}
		picked := order[:take]
		if chosen < len(keep[i]) {
			found := false
			for _, j := range picked {
				if j == chosen {
					found = true
					break
				}
			}
			if !found {
				picked = append(picked, chosen)
			}
		}
		pt.Candidates = make([]ExplainCandidate, 0, len(picked))
		for _, j := range picked {
			c := &keep[i][j]
			pt.Candidates = append(pt.Candidates, ExplainCandidate{
				Seg:          int(c.Seg),
				Dist:         c.Dist,
				Obs:          finiteOr(c.Obs, 0),
				ClassicalObs: m.fallbackObs(c.Dist),
				Fallback:     j < len(es.fellback[i]) && es.fellback[i][j],
				Chosen:       j == chosen,
			})
		}

		choice := &ExplainChoice{
			Seg:     int(cand.Seg),
			Pseudo:  cand.Pseudo,
			Score:   finiteOr(f[i][chosen], 0),
			PrevSeg: -1,
		}

		// Margin: chosen accumulated score vs. the best alternative in
		// the same layer, in nats.
		runner, hasRunner := math.Inf(-1), false
		for j := range f[i] {
			if j == chosen {
				continue
			}
			hasRunner = true
			if f[i][j] > runner {
				runner = f[i][j]
			}
		}
		choice.Unopposed = !hasRunner
		choice.Margin = m.scoreMargin(f[i][chosen], runner, hasRunner)
		if choice.Margin < explainLowMargin {
			choice.LowMargin = true
			lowMargin++
		}

		// The chosen transition: predecessor, memoized step weight, and
		// route. Absent at chain starts (first point, dead gap, Viterbi
		// break).
		if p := prevAlive[i]; p == i-1 && chosen < len(pre[i]) {
			if prevIdx := pre[i][chosen]; prevIdx >= 0 && prevIdx < len(layers[p]) {
				prevCand := &layers[p][prevIdx]
				choice.PrevSeg = int(prevCand.Seg)
				w := math.NaN()
				if steps[i] != nil && prevIdx < len(steps[i]) && chosen < len(steps[i][prevIdx]) {
					w = steps[i][prevIdx][chosen]
				}
				if math.IsNaN(w) {
					// The memoized entry was displaced by a shortcut
					// pseudo-candidate; re-score this one transition.
					if ws, ok := m.stepScore(ct, i, prevCand, cand, nil); ok {
						w = ws
					}
				}
				choice.TransScore = finiteOr(w, 0)
				if route, ok := m.Router.RouteBetween(prevCand.Pos(), cand.Pos()); ok {
					segs := make([]int, len(route.Segs))
					for ri, s := range route.Segs {
						segs[ri] = int(s)
					}
					choice.Route = segs
				}
			}
		}
		pt.Chosen = choice
		ex.Points[i] = pt
	}
	ex.LowMarginDecisions = int(lowMargin)
	return ex, decisions, lowMargin
}

// scoreMargin maps the winner/runner-up accumulated scores to a margin
// in nats under the active scoring domain: log-prod scores are already
// logs, sum scores compare as a log-ratio.
func (m *Matcher) scoreMargin(winner, runner float64, hasRunner bool) float64 {
	if !hasRunner {
		return explainMarginCap
	}
	var margin float64
	if m.Cfg.Scoring == ScoreLogProd {
		margin = winner - runner
	} else {
		switch {
		case winner <= 0:
			margin = 0
		case runner <= 0:
			margin = explainMarginCap
		default:
			margin = math.Log(winner / runner)
		}
	}
	if margin > explainMarginCap {
		margin = explainMarginCap
	}
	if margin < -explainMarginCap {
		margin = -explainMarginCap
	}
	return finiteOr(margin, 0)
}

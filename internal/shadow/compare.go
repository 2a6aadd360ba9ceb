// Package shadow compares a candidate model against the active model
// on captured traffic: before a retrained model replaces the serving
// one through hot-reload, `lhmm replay -against` re-runs every
// captured request through both and measures the candidate's behaviour
// — chosen segments, decision margins, learned scores, quality rates,
// wire bytes — against the active model's, decision by decision, then
// folds the result into a promotion verdict. The comparison substrate
// is the explain machinery: both models run the request with
// Config.Explain set, so per-point margins and chosen routes are
// available.
//
// The package works on hmm.Result pairs plus caller-encoded wire
// bodies and knows nothing about where they came from.
package shadow

import (
	"bytes"
	"math"

	"repro/internal/hmm"
)

// Comparison is the decision-level diff of one request run through the
// active and candidate models.
type Comparison struct {
	// Points is the number of per-point decisions compared (the longer
	// of the two matched sets; extra points on either side count as
	// disagreements). Agreed counts points where both models chose the
	// same segment, or both declared the point dead.
	Points int
	Agreed int

	// ActiveDead / CandDead count dead points on each side.
	ActiveDead int
	CandDead   int

	// DigestMatch reports whether the two encoded wire bodies are
	// byte-identical (the strongest agreement signal: identical bytes
	// means identical path, projections, and scores).
	DigestMatch bool

	// Per-request quality flags on each side.
	ActiveDegraded bool
	CandDegraded   bool
	ActiveGapped   bool
	CandGapped     bool

	// Learned-score deltas: |candidate Obs − active Obs| of the chosen
	// candidate at each point where both models were alive. SumAbs and
	// Max aggregate over ScoreDeltas samples.
	ScoreDeltas      int
	SumAbsScoreDelta float64
	MaxAbsScoreDelta float64

	// Margin deltas (candidate − active, nats) at each point where both
	// explain artifacts carry a chosen decision. Signed sum tracks
	// whether the candidate is systematically more or less confident;
	// the absolute sum tracks how far apart the two models' confidence
	// is regardless of direction.
	MarginDeltas      int
	SumMarginDelta    float64
	SumAbsMarginDelta float64

	// CandErr is the candidate's match error when the active model
	// answered and the candidate failed — always a disagreement.
	CandErr error
}

// Disagrees reports whether this request is a disagreement: any
// per-point decision differing, the wire bytes differing, or the
// candidate failing outright.
func (c *Comparison) Disagrees() bool {
	return c.CandErr != nil || c.Agreed < c.Points || !c.DigestMatch
}

// Compare diffs the active and candidate results of one request.
// aBody/cBody must be the wire encodings of the two results (the exact
// bytes a client would have received); digest equality is defined over
// them. Margin deltas are collected when both results carry Explain
// artifacts (matches run with Config.Explain set); without them the
// comparison still has segment agreement, score deltas, and
// quality-rate flags.
func Compare(a, c *hmm.Result, aBody, cBody []byte) Comparison {
	cmp := Comparison{
		DigestMatch:    bytes.Equal(aBody, cBody),
		ActiveDegraded: a.Degraded > 0,
		CandDegraded:   c.Degraded > 0,
		ActiveGapped:   len(a.Gaps) > 0,
		CandGapped:     len(c.Gaps) > 0,
	}
	n := len(a.Matched)
	if len(c.Matched) < n {
		n = len(c.Matched)
	}
	cmp.Points = len(a.Matched)
	if len(c.Matched) > cmp.Points {
		cmp.Points = len(c.Matched)
	}
	for i := 0; i < n; i++ {
		da := i < len(a.Dead) && a.Dead[i]
		dc := i < len(c.Dead) && c.Dead[i]
		if da {
			cmp.ActiveDead++
		}
		if dc {
			cmp.CandDead++
		}
		switch {
		case da && dc:
			cmp.Agreed++
		case da != dc:
			// One model matched a point the other declared dead.
		default:
			if a.Matched[i].Seg == c.Matched[i].Seg {
				cmp.Agreed++
			}
			d := math.Abs(finite(c.Matched[i].Obs) - finite(a.Matched[i].Obs))
			cmp.ScoreDeltas++
			cmp.SumAbsScoreDelta += d
			if d > cmp.MaxAbsScoreDelta {
				cmp.MaxAbsScoreDelta = d
			}
		}
	}
	if a.Explain != nil && c.Explain != nil {
		m := len(a.Explain.Points)
		if len(c.Explain.Points) < m {
			m = len(c.Explain.Points)
		}
		for i := 0; i < m; i++ {
			ac, cc := a.Explain.Points[i].Chosen, c.Explain.Points[i].Chosen
			if ac == nil || cc == nil {
				continue
			}
			d := finite(cc.Margin) - finite(ac.Margin)
			cmp.MarginDeltas++
			cmp.SumMarginDelta += d
			cmp.SumAbsMarginDelta += math.Abs(d)
		}
	}
	return cmp
}

// finite maps NaN/Inf to 0 (mirrors the wire encoder's sanitization,
// so deltas are over what clients would actually see).
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

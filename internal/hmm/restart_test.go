package hmm

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// tableObs serves fixed candidate layers, one per point.
type tableObs [][]Candidate

func (o tableObs) Candidates(_ traj.CellTrajectory, i, _ int) []Candidate {
	return append([]Candidate(nil), o[i]...)
}

func (o tableObs) Score(_ traj.CellTrajectory, i int, c *Candidate) float64 {
	for _, k := range o[i] {
		if k.Seg == c.Seg {
			return k.Obs
		}
	}
	return 0
}

// tableTrans scores a step from a fixed table keyed by the two roads;
// a pair it does not list is unreachable.
type tableTrans map[[2]roadnet.SegmentID]float64

func (tt tableTrans) Score(_ traj.CellTrajectory, _ int, from, to *Candidate) (float64, bool) {
	p, ok := tt[[2]roadnet.SegmentID{from.Seg, to.Seg}]
	return p, ok
}

// TestBlockedStepRestartRule is a hand-built three-point lattice where
// the last point's best-observed candidate c0 is blocked from the only
// candidate before it, and c1 is reachable. Under the log-product a
// restart at c0 used to score log 0.9 alone and beat the continuation
// through c1 (log 0.5 + log 0.25 + log 0.36); charged as an unreachable
// pair it costs the prefix plus the floor, so the continuation wins and
// the chain does not break. When c1 is blocked too, the break stands and
// costs f(b0) + accum(0) + log 0.9. Under the sum a restart keeps
// today's rule: P_O alone.
func TestBlockedStepRestartRule(t *testing.T) {
	net, router := gridWorld(t, 4, 2)
	a, b, c0, c1 := roadnet.SegmentID(0), roadnet.SegmentID(2), roadnet.SegmentID(4), roadnet.SegmentID(6)
	obs := tableObs{
		{{Seg: a, Frac: 0.5, Obs: 0.5}},
		{{Seg: b, Frac: 0.5, Obs: 0.5}},
		{{Seg: c0, Frac: 0.5, Obs: 0.9}, {Seg: c1, Frac: 0.5, Obs: 0.4}},
	}
	ct := trajAlong(geo.Pt(50, 0), geo.Pt(150, 0), geo.Pt(250, 0))
	match := func(scoring Scoring, trans tableTrans) *Result {
		m := &Matcher{Net: net, Router: router, Obs: obs, Trans: trans,
			Cfg: Config{K: 2, Scoring: scoring, OnBreak: BreakSplit}}
		res, err := m.Match(ct)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The old rule, log 0.9 alone, outscored the continuation here.
	if cont := math.Log(0.5) + math.Log(0.5*0.5) + math.Log(0.9*0.4); !(math.Log(0.9) > cont) {
		t.Fatalf("fixture: the restart (%v) does not beat the continuation (%v)", math.Log(0.9), cont)
	}
	reach := tableTrans{{a, b}: 0.5, {b, c1}: 0.9}
	blocked := tableTrans{{a, b}: 0.5}
	log := math.Log
	for _, c := range []struct {
		name    string
		scoring Scoring
		trans   tableTrans
		seg     roadnet.SegmentID
		score   float64
		gaps    int
	}{
		{"log-product, c1 reachable", ScoreLogProd, reach, c1, log(0.5) + log(0.5*0.5) + log(0.9*0.4), 0},
		{"log-product, all blocked", ScoreLogProd, blocked, c0, log(0.5) + log(0.5*0.5) + -20 + log(0.9), 1},
		{"sum, c1 reachable", ScoreSum, reach, c1, 0.5 + 0.5*0.5 + 0.9*0.4, 0},
		{"sum, all blocked", ScoreSum, blocked, c0, 0.9, 1},
	} {
		res := match(c.scoring, c.trans)
		if got := res.Matched[2].Seg; got != c.seg || res.Score != c.score || len(res.Gaps) != c.gaps {
			t.Errorf("%s: chose road %d, score %v, %d gaps; want road %d, score %v, %d gaps",
				c.name, got, res.Score, len(res.Gaps), c.seg, c.score, c.gaps)
		}
	}
}

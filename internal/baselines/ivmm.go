package baselines

import (
	"math"

	"repro/internal/hmm"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ivmmObservation implements IVMM's [10] interactive voting: each
// point's candidate scores are boosted by distance-decayed votes from
// neighboring points — a candidate reachable from a neighbor's strong
// candidate by a plausible route collects that neighbor's support.
// This captures the mutual-influence weighting of the original
// algorithm at windowed scope.
type ivmmObservation struct {
	inner  *hmm.GaussianObservation
	router *roadnet.Router
	// window is how many neighbors on each side vote.
	window int
	// voteK bounds the neighbor candidates considered per vote.
	voteK int
}

func (v *ivmmObservation) Candidates(ct traj.CellTrajectory, i, k int) []hmm.Candidate {
	cands := v.inner.Candidates(ct, i, k)
	for idx := range cands {
		cands[idx].Obs = v.votedScore(ct, i, &cands[idx])
	}
	// Re-sort by the voted score.
	for a := 1; a < len(cands); a++ {
		for b := a; b > 0 && cands[b].Obs > cands[b-1].Obs; b-- {
			cands[b], cands[b-1] = cands[b-1], cands[b]
		}
	}
	return cands
}

func (v *ivmmObservation) Score(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	return v.votedScore(ct, i, c)
}

// votedScore blends the static Gaussian score with neighbor votes.
func (v *ivmmObservation) votedScore(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	static := v.inner.Score(ct, i, c)
	var votes, weightSum float64
	for j := i - v.window; j <= i+v.window; j++ {
		if j < 0 || j >= len(ct) || j == i {
			continue
		}
		// Mutual-influence weight decays with inter-point distance.
		w := math.Exp(-ct[i].P.Dist(ct[j].P) / 2000)
		weightSum += w
		neighbor := v.inner.Candidates(ct, j, v.voteK)
		best := 0.0
		for idx := range neighbor {
			nc := &neighbor[idx]
			var route roadnet.Route
			var ok bool
			if j < i {
				route, ok = v.router.RouteBetween(nc.Pos(), c.Pos())
			} else {
				route, ok = v.router.RouteBetween(c.Pos(), nc.Pos())
			}
			if !ok {
				continue
			}
			straight := ct[i].P.Dist(ct[j].P)
			vote := nc.Obs * math.Exp(-math.Abs(straight-route.Dist)/800)
			if vote > best {
				best = vote
			}
		}
		votes += w * best
	}
	if weightSum == 0 {
		return static
	}
	return 0.5*static + 0.5*votes/weightSum
}

// NewIVMM builds IVMM [10].
func NewIVMM(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	cfg = cfg.withDefaults()
	return NewHMMMethod("IVMM", NewMatcher(net, router, cfg, 0, &ivmmObservation{
		inner:  &hmm.GaussianObservation{Net: net, Sigma: cfg.Sigma},
		router: router,
		window: 2,
		voteK:  3,
	}, nil))
}

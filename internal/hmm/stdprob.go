package hmm

import (
	"math"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The cellular-scale defaults of the classical models: the Eq. 2
// Gaussian's σ and the Eq. 3 exponential's β, in meters. The degraded
// mode's fallback, the baselines, the experiment suite and LHMM's Eq. 12
// length similarity all read these two.
const (
	ClassicalSigma = 450
	ClassicalBeta  = 500
)

// GaussianObservation is the classical distance-based observation
// probability of Eq. 2: candidates are the k nearest segments and
// P_O ∝ exp(-0.5·((d-μ)/σ)²).
type GaussianObservation struct {
	Net *roadnet.Network
	// Sigma is the positioning-error standard deviation σ₁ in meters.
	// GPS matchers use tens of meters; cellular needs hundreds.
	Sigma float64
	// Mu is the mean error μ₁ (usually 0).
	Mu float64
}

// Candidates returns the k segments nearest to the point, scored by the
// Gaussian density (constant factor dropped — scores are relative).
func (g *GaussianObservation) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	segs := g.Net.SegmentsNear(ct[i].P, k)
	out := make([]Candidate, 0, len(segs))
	for _, sid := range segs {
		c := Candidate{Seg: sid}
		c.Proj, c.Frac = g.Net.Project(sid, ct[i].P)
		c.Dist = c.Proj.Dist(ct[i].P)
		c.Obs = g.Score(ct, i, &c)
		out = append(out, c)
	}
	return out
}

// Score computes Eq. 2 for an arbitrary candidate.
func (g *GaussianObservation) Score(ct traj.CellTrajectory, i int, c *Candidate) float64 {
	sigma := g.Sigma
	if sigma <= 0 {
		sigma = ClassicalSigma
	}
	z := (c.Dist - g.Mu) / sigma
	return math.Exp(-0.5 * z * z)
}

// ExponentialTransition is the classical transition probability of
// Eq. 3: P_T ∝ exp(-|d_great - d_route| / β), penalizing routes much
// longer (or shorter) than the straight-line movement between points.
type ExponentialTransition struct {
	Router *roadnet.Router
	// Beta is the scale σ₂ in meters.
	Beta float64
}

// Score computes Eq. 3. Unreachable movements return ok=false.
func (e *ExponentialTransition) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	dist, ok := e.Router.RouteDist(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	beta := e.Beta
	if beta <= 0 {
		beta = ClassicalBeta
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	return math.Exp(-math.Abs(straight-dist) / beta), true
}

// Package cellular models the cellular positioning substrate: cell
// towers, a density-graded placement model, and a serving-tower
// simulator that reproduces the 0.1–3 km positioning error the paper
// reports for cellular trajectories (§I, §III-B).
//
// The placement model stands in for the proprietary operator
// infrastructure in the paper's Hangzhou/Xiamen datasets: tower density
// is highest near the city center and decays outward, so positioning
// error grows with distance from the center — exactly the gradient the
// paper's Fig. 7(a) sweeps.
package cellular

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// TowerID identifies a cell tower.
type TowerID int

// Tower is a cell tower with a fixed position (Definition 1).
type Tower struct {
	ID TowerID
	P  geo.Point
}

// Net is an immutable set of towers with a spatial index. Safe for
// concurrent use once built.
type Net struct {
	towers []Tower
	index  *spatial.Grid
}

// NewNet builds a tower network from positions. It returns an error if
// no towers are given.
func NewNet(positions []geo.Point) (*Net, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("cellular: no towers")
	}
	bounds := geo.Rect{Min: positions[0], Max: positions[0]}
	for _, p := range positions[1:] {
		bounds = bounds.Extend(p)
	}
	cell := math.Max(100, math.Max(bounds.Width(), bounds.Height())/128)
	n := &Net{
		towers: make([]Tower, len(positions)),
		index:  spatial.NewGrid(bounds, cell),
	}
	for i, p := range positions {
		n.towers[i] = Tower{ID: TowerID(i), P: p}
		n.index.Insert(spatial.PointItem{P: p})
	}
	return n, nil
}

// NumTowers returns the number of towers.
func (n *Net) NumTowers() int { return len(n.towers) }

// Tower returns the tower with the given id. It panics on a bad id.
func (n *Net) Tower(id TowerID) Tower { return n.towers[id] }

// Nearest returns the ids of the k towers nearest to p, ascending by
// distance.
func (n *Net) Nearest(p geo.Point, k int) []TowerID {
	ids := n.index.Nearest(p, k)
	out := make([]TowerID, len(ids))
	for i, id := range ids {
		out[i] = TowerID(id)
	}
	return out
}

// Within returns the ids of all towers within radius meters of p.
func (n *Net) Within(p geo.Point, radius float64) []TowerID {
	ids := n.index.Within(p, radius)
	out := make([]TowerID, len(ids))
	for i, id := range ids {
		out[i] = TowerID(id)
	}
	return out
}

// PlacementConfig controls synthetic tower placement.
type PlacementConfig struct {
	Bounds      geo.Rect  // area to cover
	Center      geo.Point // city center (densest towers)
	Count       int       // number of towers
	CoreRadius  float64   // radius of the dense urban core, meters
	FalloffRate float64   // how quickly density decays outside the core; 1.0 is typical
	Jitter      float64   // positional noise applied to the underlying lattice, meters
}

// Place generates tower positions whose density decays with distance
// from the center: a candidate at distance r from the center is kept
// with probability exp(-FalloffRate * max(0, r-CoreRadius)/CoreRadius).
// Placement is deterministic given rng.
func Place(cfg PlacementConfig, rng *rand.Rand) []geo.Point {
	if cfg.Count <= 0 {
		return nil
	}
	core := cfg.CoreRadius
	if core <= 0 {
		core = math.Max(cfg.Bounds.Width(), cfg.Bounds.Height()) / 4
	}
	rate := cfg.FalloffRate
	if rate <= 0 {
		rate = 1
	}
	pts := make([]geo.Point, 0, cfg.Count)
	// Rejection-sample; bail out after a generous number of attempts so
	// a pathological config cannot loop forever.
	maxAttempts := cfg.Count * 1000
	for attempts := 0; len(pts) < cfg.Count && attempts < maxAttempts; attempts++ {
		p := geo.Pt(
			cfg.Bounds.Min.X+rng.Float64()*cfg.Bounds.Width(),
			cfg.Bounds.Min.Y+rng.Float64()*cfg.Bounds.Height(),
		)
		r := p.Dist(cfg.Center)
		keep := math.Exp(-rate * math.Max(0, r-core) / core)
		if rng.Float64() < keep {
			if cfg.Jitter > 0 {
				p = p.Add(geo.Pt(rng.NormFloat64()*cfg.Jitter, rng.NormFloat64()*cfg.Jitter))
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// ServingModel decides which tower serves a phone at a given true
// position. It reproduces cellular positioning error: the phone does
// not always connect to the nearest tower because of shadow fading,
// load balancing, and antenna patterns. The serving tower is sampled
// from a softmax over the negated distances of the CandidateK nearest
// towers, each perturbed by log-normal shadow fading.
type ServingModel struct {
	// CandidateK is how many nearby towers compete to serve. Default 6.
	CandidateK int
	// DistScale is the softmax temperature in meters: larger values
	// make farther towers more competitive (more positioning error).
	// Default 400.
	DistScale float64
	// ShadowSigma is the standard deviation of the shadow fading noise
	// added to each tower's effective distance, expressed as a fraction
	// of the distance. Default 0.3.
	ShadowSigma float64
	// StickyProb is the probability of staying on the previous tower
	// when it is still among the candidates (handover hysteresis).
	// Default 0.45.
	StickyProb float64
	// OutlierProb is the probability of an extreme handover: the phone
	// connects to a uniformly random tower within OutlierRadius,
	// producing the 1–3 km positioning errors the paper attributes to
	// noisy points (§IV-E, Observation 1). Default 0.02.
	OutlierProb float64
	// OutlierRadius bounds how far an outlier handover can reach, in
	// meters. Default 2500 (the paper's error ceiling).
	OutlierRadius float64
}

// DefaultServingModel returns the model used by the synthetic dataset
// presets; its parameters were tuned so the resulting positioning-error
// distribution matches the paper's 0.1–3 km range with the Table I
// medians, including the occasional extreme outlier that creates
// unqualified candidate sets.
func DefaultServingModel() ServingModel {
	return ServingModel{
		CandidateK: 6, DistScale: 400, ShadowSigma: 0.3, StickyProb: 0.45,
		OutlierProb: 0.02, OutlierRadius: 2000,
	}
}

// Serve picks the serving tower for a phone at the true position p.
// prev is the previously serving tower or -1. Sampling is deterministic
// given rng.
func (m ServingModel) Serve(rng *rand.Rand, net *Net, p geo.Point, prev TowerID) TowerID {
	k := m.CandidateK
	if k <= 0 {
		k = 6
	}
	scale := m.DistScale
	if scale <= 0 {
		scale = 400
	}
	sigma := m.ShadowSigma
	if sigma < 0 {
		sigma = 0.3
	}
	cands := net.Nearest(p, k)
	if len(cands) == 0 {
		return -1
	}
	// Extreme handover: a uniformly random tower within OutlierRadius
	// (signal reflection, load shedding). Checked before hysteresis so
	// outliers survive even on a sticky connection.
	if m.OutlierProb > 0 && rng.Float64() < m.OutlierProb {
		radius := m.OutlierRadius
		if radius <= 0 {
			radius = 2500
		}
		far := net.Within(p, radius)
		if len(far) > 0 {
			return far[rng.Intn(len(far))]
		}
	}
	// Handover hysteresis: stay on the previous tower if it is still
	// competitive.
	if prev >= 0 && rng.Float64() < m.StickyProb {
		for _, id := range cands {
			if id == prev {
				return prev
			}
		}
	}
	// Softmax over effective (shadow faded) distances.
	weights := make([]float64, len(cands))
	var sum float64
	for i, id := range cands {
		d := net.Tower(id).P.Dist(p)
		eff := d * (1 + rng.NormFloat64()*sigma)
		w := math.Exp(-eff / scale)
		weights[i] = w
		sum += w
	}
	if sum == 0 {
		return cands[0]
	}
	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return cands[i]
		}
	}
	return cands[len(cands)-1]
}

// Package metrics implements the paper's evaluation criteria (§V-A3):
// precision, recall, Route Mismatch Fraction (RMF, Eq. 22), Corridor
// Mismatch Fraction (CMF, Eq. 23), and the Hitting Ratio for candidate
// preparation quality.
package metrics

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// PathMetrics aggregates the segment- and corridor-level accuracy of a
// matched path against the ground truth.
type PathMetrics struct {
	Precision float64 // correct length / matched length
	Recall    float64 // correct length / truth length
	RMF       float64 // (missing + redundant length) / truth length
	CMF       float64 // corridor-uncovered truth length / truth length

	// The matched path's shape, each entry counted as often as it
	// occurs: LengthRatio is its travelled length over the truth's;
	// UTurns counts steps onto the reverse of the segment just travelled
	// (From and To swapped); Revisits is the share of its entries whose
	// segment an earlier entry already holds.
	LengthRatio float64
	UTurns      int
	Revisits    float64
}

// PathGeometry concatenates the segment shapes of a path.
func PathGeometry(net *roadnet.Network, path []roadnet.SegmentID) geo.Polyline {
	var pl geo.Polyline
	for i, sid := range path {
		shape := net.Segment(sid).Shape
		if i == 0 {
			pl = append(pl, shape...)
		} else {
			pl = append(pl, shape[1:]...)
		}
	}
	return pl
}

// EvalPath compares a matched path with the ground-truth path.
// corridor is the CMF corridor radius in meters (the paper reports
// CMF50). Duplicate segments in either path are counted once in the
// accuracy metrics, and every entry in the shape ones. Every sum runs in
// path order, so equal paths give equal bits.
func EvalPath(net *roadnet.Network, matched, truth []roadnet.SegmentID, corridor float64) PathMetrics {
	truthSet := make(map[roadnet.SegmentID]bool, len(truth))
	var truthLen, truthTravel float64
	for _, s := range truth {
		truthTravel += net.Segment(s).Length
		if !truthSet[s] {
			truthSet[s] = true
			truthLen += net.Segment(s).Length
		}
	}
	matchedSet := make(map[roadnet.SegmentID]bool, len(matched))
	var matchedLen, correctLen, matchedTravel float64
	var revisits int
	for _, s := range matched {
		matchedTravel += net.Segment(s).Length
		if matchedSet[s] {
			revisits++
			continue
		}
		matchedSet[s] = true
		matchedLen += net.Segment(s).Length
		if truthSet[s] {
			correctLen += net.Segment(s).Length
		}
	}
	var missingLen float64
	for _, s := range truth {
		if truthSet[s] && !matchedSet[s] {
			truthSet[s] = false // count each missing segment once
			missingLen += net.Segment(s).Length
		}
	}
	redundantLen := matchedLen - correctLen

	m := PathMetrics{UTurns: uTurns(net, matched)}
	if len(matched) > 0 {
		m.Revisits = float64(revisits) / float64(len(matched))
	}
	if truthTravel > 0 {
		m.LengthRatio = matchedTravel / truthTravel
	}
	if matchedLen > 0 {
		m.Precision = correctLen / matchedLen
	}
	if truthLen > 0 {
		m.Recall = correctLen / truthLen
		m.RMF = (missingLen + redundantLen) / truthLen
		m.CMF = cmf(net, matched, truth, truthLen, corridor)
	}
	return m
}

// uTurns counts the steps of path onto the reverse of the segment just
// travelled.
func uTurns(net *roadnet.Network, path []roadnet.SegmentID) int {
	var n int
	for i := 1; i < len(path); i++ {
		a, b := net.Segment(path[i-1]), net.Segment(path[i])
		if b.From == a.To && b.To == a.From {
			n++
		}
	}
	return n
}

// cmf samples the ground-truth geometry and measures the fraction of
// its length farther than the corridor radius from the matched path.
func cmf(net *roadnet.Network, matched, truth []roadnet.SegmentID, truthLen, corridor float64) float64 {
	if len(matched) == 0 {
		return 1
	}
	matchedGeom := PathGeometry(net, matched)
	truthGeom := PathGeometry(net, truth)
	const step = 10.0 // meters between samples
	n := int(truthLen/step) + 2
	var uncovered int
	for i := 0; i < n; i++ {
		p := truthGeom.At(truthLen * float64(i) / float64(n-1))
		if matchedGeom.Dist(p) > corridor {
			uncovered++
		}
	}
	return float64(uncovered) / float64(n)
}

// HittingRatio is the fraction of trajectory points whose candidate
// road set intersects the ground-truth path (§V-A3). cands holds the
// candidate segment ids per point.
func HittingRatio(cands [][]roadnet.SegmentID, truth []roadnet.SegmentID) float64 {
	if len(cands) == 0 {
		return 0
	}
	truthSet := make(map[roadnet.SegmentID]bool, len(truth))
	for _, s := range truth {
		truthSet[s] = true
	}
	hits := 0
	for _, layer := range cands {
		for _, s := range layer {
			if truthSet[s] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(cands))
}

// Accum accumulates per-trip metrics into means.
type Accum struct {
	n           int
	precision   float64
	recall      float64
	rmf         float64
	cmf         float64
	lengthRatio float64
	uTurns      int
	revisits    float64
	hr          float64
	hrN         int
	seconds     float64
}

// Add folds one trip's metrics into the accumulator.
func (a *Accum) Add(m PathMetrics) {
	a.n++
	a.precision += m.Precision
	a.recall += m.Recall
	a.rmf += m.RMF
	a.cmf += m.CMF
	a.lengthRatio += m.LengthRatio
	a.uTurns += m.UTurns
	a.revisits += m.Revisits
}

// AddHR folds one trip's hitting ratio (HMM-family methods only).
func (a *Accum) AddHR(hr float64) {
	a.hrN++
	a.hr += hr
}

// AddTime folds one trip's matching wall time in seconds.
func (a *Accum) AddTime(sec float64) { a.seconds += sec }

// Summary is the averaged result of an evaluation run — one row of the
// paper's Table II.
type Summary struct {
	Trips     int
	Precision float64
	Recall    float64
	RMF       float64
	CMF       float64
	HR        float64 // NaN when not applicable
	AvgTimeS  float64

	// Means of the per-trip path shape (PathMetrics): the matched/true
	// length ratio, U-turns per trip and the revisited-entry share.
	LengthRatio float64
	UTurns      float64
	Revisits    float64
}

// Summary returns the means accumulated so far.
func (a *Accum) Summary() Summary {
	s := Summary{Trips: a.n, HR: math.NaN()}
	if a.n == 0 {
		return s
	}
	fn := float64(a.n)
	s.Precision = a.precision / fn
	s.Recall = a.recall / fn
	s.RMF = a.rmf / fn
	s.CMF = a.cmf / fn
	s.LengthRatio = a.lengthRatio / fn
	s.UTurns = float64(a.uTurns) / fn
	s.Revisits = a.revisits / fn
	s.AvgTimeS = a.seconds / fn
	if a.hrN > 0 {
		s.HR = a.hr / float64(a.hrN)
	}
	return s
}

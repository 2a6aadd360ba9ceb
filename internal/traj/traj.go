// Package traj defines trajectory types — GPS and cellular sampling
// sequences, ground-truth trips — plus the preprocessing filter chain
// the paper applies before matching (§V-A1, following SnapNet [12]):
// speed filter, α-trimmed mean filter, and direction filter.
package traj

import (
	"math"
	"sort"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// GPSPoint is a timestamped GPS sample along a trip.
type GPSPoint struct {
	P geo.Point
	T float64 // seconds since trip start
}

// CellPoint is a trajectory point under cellular positioning
// (Definition 2): the position of the interacted cell tower, possibly
// smoothed by preprocessing filters, plus the tower identity used for
// representation learning.
type CellPoint struct {
	Tower cellular.TowerID
	P     geo.Point // position estimate (tower location, or smoothed)
	T     float64   // seconds since trip start
}

// CellTrajectory is a cellular sampling sequence.
type CellTrajectory []CellPoint

// Positions returns the position estimates as a polyline.
func (ct CellTrajectory) Positions() geo.Polyline {
	pl := make(geo.Polyline, len(ct))
	for i, p := range ct {
		pl[i] = p.P
	}
	return pl
}

// Duration returns the elapsed time between the first and last samples.
func (ct CellTrajectory) Duration() float64 {
	if len(ct) < 2 {
		return 0
	}
	return ct[len(ct)-1].T - ct[0].T
}

// MaxInterval returns the longest gap between consecutive samples.
func (ct CellTrajectory) MaxInterval() float64 {
	var m float64
	for i := 1; i < len(ct); i++ {
		if d := ct[i].T - ct[i-1].T; d > m {
			m = d
		}
	}
	return m
}

// SamplingDistances returns the consecutive-point distances in meters.
func (ct CellTrajectory) SamplingDistances() []float64 {
	if len(ct) < 2 {
		return nil
	}
	out := make([]float64, len(ct)-1)
	for i := 1; i < len(ct); i++ {
		out[i-1] = ct[i-1].P.Dist(ct[i].P)
	}
	return out
}

// Resample returns a copy keeping samples at least minGap seconds apart
// (the first point always kept), emulating lower sampling rates for the
// paper's Fig. 7(b) sweep.
func (ct CellTrajectory) Resample(minGap float64) CellTrajectory {
	if len(ct) == 0 || minGap <= 0 {
		out := make(CellTrajectory, len(ct))
		copy(out, ct)
		return out
	}
	out := CellTrajectory{ct[0]}
	last := ct[0].T
	for _, p := range ct[1:] {
		if p.T-last >= minGap {
			out = append(out, p)
			last = p.T
		}
	}
	return out
}

// Trip is one traveled journey with its ground truth and both sampling
// modalities, the unit of the synthetic datasets.
type Trip struct {
	ID       int
	Path     []roadnet.SegmentID // ground-truth traveled path, in order
	PathGeom geo.Polyline        // geometry of the traveled path
	GPS      []GPSPoint
	Cell     CellTrajectory
}

// PathLength returns the ground-truth path length in meters.
func (t *Trip) PathLength() float64 { return t.PathGeom.Length() }

// PathSet returns the trip's path as a segment-id set.
func (t *Trip) PathSet() map[roadnet.SegmentID]bool {
	s := make(map[roadnet.SegmentID]bool, len(t.Path))
	for _, e := range t.Path {
		s[e] = true
	}
	return s
}

// Dataset bundles a road network, tower network and trips, split into
// train/validation/test partitions.
type Dataset struct {
	Name   string
	Net    *roadnet.Network
	Cells  *cellular.Net
	Center geo.Point // city center, used by the robustness analysis
	Trips  []Trip
	Train  []int // indices into Trips
	Valid  []int
	Test   []int
}

// Split partitions trip indices deterministically by position:
// the first trainFrac go to Train, the next validFrac to Valid, the
// rest to Test. Fractions are clamped so every partition is valid.
func (d *Dataset) Split(trainFrac, validFrac float64) {
	n := len(d.Trips)
	nTrain := int(float64(n) * math.Max(0, math.Min(1, trainFrac)))
	nValid := int(float64(n) * math.Max(0, math.Min(1, validFrac)))
	if nTrain+nValid > n {
		nValid = n - nTrain
	}
	d.Train = d.Train[:0]
	d.Valid = d.Valid[:0]
	d.Test = d.Test[:0]
	for i := 0; i < n; i++ {
		switch {
		case i < nTrain:
			d.Train = append(d.Train, i)
		case i < nTrain+nValid:
			d.Valid = append(d.Valid, i)
		default:
			d.Test = append(d.Test, i)
		}
	}
}

// TrainTrips returns the training trips.
func (d *Dataset) TrainTrips() []*Trip { return d.pick(d.Train) }

// ValidTrips returns the validation trips.
func (d *Dataset) ValidTrips() []*Trip { return d.pick(d.Valid) }

// TestTrips returns the test trips.
func (d *Dataset) TestTrips() []*Trip { return d.pick(d.Test) }

func (d *Dataset) pick(idx []int) []*Trip {
	out := make([]*Trip, len(idx))
	for i, j := range idx {
		out[i] = &d.Trips[j]
	}
	return out
}

// Stats summarizes a dataset in the shape of the paper's Table I.
type Stats struct {
	RoadSegments          int
	Intersections         int
	CellPoints            int
	GPSPoints             int
	CellPointsPerTraj     float64
	GPSPointsPerTraj      float64
	AvgCellIntervalSec    float64
	MaxCellIntervalSec    float64
	AvgCellSampleDistM    float64
	MedianCellSampleDistM float64
}

// ComputeStats derives Table I-style characteristics from the dataset.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		RoadSegments:  d.Net.NumSegments(),
		Intersections: d.Net.NumNodes(),
	}
	var cellPts, gpsPts int
	var intervalSum float64
	var intervalCount int
	var maxInterval float64
	var dists []float64
	for i := range d.Trips {
		tr := &d.Trips[i]
		cellPts += len(tr.Cell)
		gpsPts += len(tr.GPS)
		if mi := tr.Cell.MaxInterval(); mi > maxInterval {
			maxInterval = mi
		}
		for j := 1; j < len(tr.Cell); j++ {
			intervalSum += tr.Cell[j].T - tr.Cell[j-1].T
			intervalCount++
		}
		dists = append(dists, tr.Cell.SamplingDistances()...)
	}
	s.CellPoints = cellPts
	s.GPSPoints = gpsPts
	if n := len(d.Trips); n > 0 {
		s.CellPointsPerTraj = float64(cellPts) / float64(n)
		s.GPSPointsPerTraj = float64(gpsPts) / float64(n)
	}
	if intervalCount > 0 {
		s.AvgCellIntervalSec = intervalSum / float64(intervalCount)
	}
	s.MaxCellIntervalSec = maxInterval
	if len(dists) > 0 {
		var sum float64
		for _, d := range dists {
			sum += d
		}
		s.AvgCellSampleDistM = sum / float64(len(dists))
		s.MedianCellSampleDistM = median(dists)
	}
	return s
}

// median returns the median of xs without modifying it. Empty input
// returns 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

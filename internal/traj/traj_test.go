package traj

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func mkTraj(pts ...geo.Point) CellTrajectory {
	ct := make(CellTrajectory, len(pts))
	for i, p := range pts {
		ct[i] = CellPoint{Tower: -1, P: p, T: float64(i) * 60}
	}
	return ct
}

func TestTrajectoryAccessors(t *testing.T) {
	ct := mkTraj(geo.Pt(0, 0), geo.Pt(300, 400), geo.Pt(300, 1000))
	if pl := ct.Positions(); len(pl) != 3 || pl[1] != geo.Pt(300, 400) {
		t.Errorf("Positions = %v", pl)
	}
	if d := ct.Duration(); d != 120 {
		t.Errorf("Duration = %v", d)
	}
	if mi := ct.MaxInterval(); mi != 60 {
		t.Errorf("MaxInterval = %v", mi)
	}
	dists := ct.SamplingDistances()
	if len(dists) != 2 || dists[0] != 500 || dists[1] != 600 {
		t.Errorf("SamplingDistances = %v", dists)
	}
	empty := CellTrajectory{}
	if empty.Duration() != 0 || empty.SamplingDistances() != nil {
		t.Error("empty trajectory accessors not zero")
	}
}

func TestResample(t *testing.T) {
	ct := mkTraj(geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0), geo.Pt(4, 0))
	// 60 s intervals; keep >= 120 s apart: indices 0,2,4.
	rs := ct.Resample(120)
	if len(rs) != 3 || rs[0].T != 0 || rs[1].T != 120 || rs[2].T != 240 {
		t.Errorf("Resample = %v", rs)
	}
	// Zero gap returns a copy.
	same := ct.Resample(0)
	if len(same) != len(ct) {
		t.Errorf("Resample(0) = %d points", len(same))
	}
	same[0].T = 999
	if ct[0].T == 999 {
		t.Error("Resample(0) did not copy")
	}
	if got := (CellTrajectory{}).Resample(10); len(got) != 0 {
		t.Errorf("empty Resample = %v", got)
	}
}

func TestSpeedFilter(t *testing.T) {
	ct := CellTrajectory{
		{P: geo.Pt(0, 0), T: 0},
		{P: geo.Pt(100, 0), T: 10},   // 10 m/s — keep
		{P: geo.Pt(10000, 0), T: 20}, // 990 m/s — drop
		{P: geo.Pt(200, 0), T: 30},   // 5 m/s from (100,0) — keep
		{P: geo.Pt(300, 0), T: 30},   // duplicate timestamp — drop
	}
	out := SpeedFilter(ct, 42)
	if len(out) != 3 {
		t.Fatalf("SpeedFilter kept %d, want 3: %v", len(out), out)
	}
	if out[2].P != geo.Pt(200, 0) {
		t.Errorf("SpeedFilter kept wrong points: %v", out)
	}
	if got := SpeedFilter(nil, 42); got != nil {
		t.Errorf("nil SpeedFilter = %v", got)
	}
	if got := SpeedFilter(ct, 0); len(got) != len(ct) {
		t.Errorf("disabled SpeedFilter dropped points")
	}
}

func TestAlphaTrimmedMeanFilter(t *testing.T) {
	// One outlier among collinear points: the trimmed mean should pull
	// it toward the line.
	ct := mkTraj(
		geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(200, 5000), geo.Pt(300, 0), geo.Pt(400, 0),
	)
	out := AlphaTrimmedMeanFilter(ct, 5, 0.2)
	if len(out) != len(ct) {
		t.Fatalf("filter changed length: %d", len(out))
	}
	if out[2].P.Y >= 5000 {
		t.Errorf("outlier not smoothed: %v", out[2].P)
	}
	// Tower ids preserved.
	for i := range out {
		if out[i].Tower != ct[i].Tower || out[i].T != ct[i].T {
			t.Error("filter modified identity or timestamp")
		}
	}
	// Small window: unchanged copy.
	same := AlphaTrimmedMeanFilter(ct, 1, 0.2)
	for i := range same {
		if same[i].P != ct[i].P {
			t.Error("window<3 modified positions")
		}
	}
	if got := AlphaTrimmedMeanFilter(nil, 5, 0.2); len(got) != 0 {
		t.Errorf("nil input = %v", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	got := trimmedMean(append([]float64(nil), xs...), 0.2)
	if got != 3 { // trims 1 and 100, mean(2,3,4)=3
		t.Errorf("trimmedMean = %v, want 3", got)
	}
	// Two elements, trim 0: plain mean.
	if got := trimmedMean([]float64{5, 7}, 0.49); got != 6 {
		t.Errorf("two-element trimmedMean = %v, want 6", got)
	}
	// Three elements with trim 1 keeps only the middle element.
	if got := trimmedMean([]float64{1, 50, 100}, 0.49); got != 50 {
		t.Errorf("heavy-trim trimmedMean = %v, want 50", got)
	}
}

func TestDirectionFilter(t *testing.T) {
	// Ping-pong: forward, jump back, forward again.
	ct := mkTraj(geo.Pt(0, 0), geo.Pt(1000, 0), geo.Pt(100, 0), geo.Pt(1100, 0))
	out := DirectionFilter(ct, 150*math.Pi/180)
	// Point 1 reverses (turn at p1: heading 0 then pi => drop p1? turn
	// computed at p1 between (p0->p1) and (p1->p2): pi -> dropped.
	if len(out) >= len(ct) {
		t.Fatalf("DirectionFilter dropped nothing: %v", out)
	}
	// Endpoints preserved.
	if out[0] != ct[0] || out[len(out)-1] != ct[len(ct)-1] {
		t.Error("DirectionFilter lost endpoints")
	}
	// Gentle curve untouched.
	curve := mkTraj(geo.Pt(0, 0), geo.Pt(100, 10), geo.Pt(200, 30), geo.Pt(300, 60))
	if got := DirectionFilter(curve, 150*math.Pi/180); len(got) != len(curve) {
		t.Errorf("gentle curve filtered: %d of %d", len(got), len(curve))
	}
	if got := DirectionFilter(nil, 1); got != nil {
		t.Errorf("nil input = %v", got)
	}
	if got := DirectionFilter(ct, 0); len(got) != len(ct) {
		t.Error("disabled filter dropped points")
	}
}

func TestPreprocessChain(t *testing.T) {
	ct := CellTrajectory{
		{P: geo.Pt(0, 0), T: 0},
		{P: geo.Pt(500, 0), T: 60},
		{P: geo.Pt(50000, 0), T: 120}, // speed outlier
		{P: geo.Pt(1000, 100), T: 180},
		{P: geo.Pt(1500, 0), T: 240},
		{P: geo.Pt(2000, 50), T: 300},
	}
	out := Preprocess(ct, DefaultFilterConfig())
	if len(out) == 0 || len(out) >= len(ct) {
		t.Fatalf("Preprocess kept %d of %d", len(out), len(ct))
	}
	for _, p := range out {
		if p.P.X > 10000 {
			t.Error("speed outlier survived preprocessing")
		}
	}
}

func TestSplit(t *testing.T) {
	d := Dataset{Trips: make([]Trip, 10)}
	for i := range d.Trips {
		d.Trips[i].ID = i
	}
	d.Split(0.6, 0.2)
	if len(d.Train) != 6 || len(d.Valid) != 2 || len(d.Test) != 2 {
		t.Fatalf("Split = %d/%d/%d", len(d.Train), len(d.Valid), len(d.Test))
	}
	if d.TrainTrips()[0].ID != 0 || d.TestTrips()[1].ID != 9 {
		t.Error("split picked wrong trips")
	}
	// Overlapping fractions clamp.
	d.Split(0.8, 0.5)
	if len(d.Train)+len(d.Valid)+len(d.Test) != 10 {
		t.Error("clamped split lost trips")
	}
}

func TestComputeStatsEmptyTrips(t *testing.T) {
	// Stats on an empty trip list must not divide by zero. A tiny
	// network satisfies the dataset shape.
	d := datasetWithTinyNet(t)
	s := d.ComputeStats()
	if s.CellPoints != 0 || s.CellPointsPerTraj != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	// Input not modified.
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median modified input")
	}
}

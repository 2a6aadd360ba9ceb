package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/traj"
)

// Table2Methods lists the Table II rows in the paper's order, less the
// seq2seq family (Seq2SeqMethods).
var Table2Methods = []string{
	"STM", "IVMM", "IFM", "MCM", // GPS-era
	"CLSTERS", "SNet", "THMM", // CTMM-tailored
	"LHMM",
}

// Seq2SeqMethods lists Table II's seq2seq rows, run on their own
// (experiment "seq2seq") because their training dominates the table's
// wall.
var Seq2SeqMethods = []string{"DeepMM", "TransformerMM", "DMM"}

// Table1 regenerates Table I (dataset characteristics).
func Table1(suites ...*Suite) (string, error) {
	var names []string
	var stats []traj.Stats
	for _, s := range suites {
		ds, err := s.Dataset()
		if err != nil {
			return "", err
		}
		names = append(names, ds.Name)
		stats = append(stats, ds.ComputeStats())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — dataset characteristics\n%-42s", "category")
	for _, n := range names {
		fmt.Fprintf(&b, " %18s", n)
	}
	b.WriteString("\n")
	row := func(label string, get func(traj.Stats) string) {
		fmt.Fprintf(&b, "%-42s", label)
		for _, st := range stats {
			fmt.Fprintf(&b, " %18s", get(st))
		}
		b.WriteString("\n")
	}
	row("road segments", func(s traj.Stats) string { return fmt.Sprintf("%d", s.RoadSegments) })
	row("intersections", func(s traj.Stats) string { return fmt.Sprintf("%d", s.Intersections) })
	row("all cellular trajectory points", func(s traj.Stats) string { return fmt.Sprintf("%d", s.CellPoints) })
	row("all GPS trajectory points", func(s traj.Stats) string { return fmt.Sprintf("%d", s.GPSPoints) })
	row("cellular trajectory points per trajectory", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.CellPointsPerTraj) })
	row("GPS trajectory points per trajectory", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.GPSPointsPerTraj) })
	row("average cellular sampling interval (s)", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.AvgCellIntervalSec) })
	row("maximum cellular sampling interval (s)", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.MaxCellIntervalSec) })
	row("average cellular sampling distance (m)", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.AvgCellSampleDistM) })
	row("median cellular sampling distance (m)", func(s traj.Stats) string { return fmt.Sprintf("%.0f", s.MedianCellSampleDistM) })
	return b.String(), nil
}

// Table2 regenerates Table II (overall performance) for one dataset.
func Table2(s *Suite) ([]Row, error) { return s.testRows("table2", Table2Methods) }

// Seq2Seq regenerates Table II's seq2seq rows for one dataset.
func Seq2Seq(s *Suite) ([]Row, error) { return s.testRows("seq2seq", Seq2SeqMethods) }

// Table3Variants lists the Table III ablation rows.
var Table3Variants = []string{"LHMM", "LHMM-E", "LHMM-H", "LHMM-O", "LHMM-T", "LHMM-S", "STM", "STM+S"}

// Table3 regenerates Table III (ablations) for one dataset.
func Table3(s *Suite) ([]Row, error) { return s.testRows("table3", Table3Variants) }

// testRows evaluates names over the test split; id prefixes errors.
func (s *Suite) testRows(id string, names []string) ([]Row, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	rows, err := s.rows(names, ds.TestTrips())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return rows, nil
}

// SeriesPoint is one x-position of a figure's line chart.
type SeriesPoint struct {
	X      float64
	Values map[string]float64 // method -> metric value
}

// Figure7aMethods are the methods compared in the robustness figures.
var Figure7aMethods = []string{"LHMM", "DMM", "STM"}

// cmfPoint is one x-position of Fig. 7: each of Figure7aMethods'
// CMF50 on trips.
func (s *Suite) cmfPoint(x float64, trips []*traj.Trip) (SeriesPoint, error) {
	rows, err := s.rows(Figure7aMethods, trips)
	if err != nil {
		return SeriesPoint{}, err
	}
	sp := SeriesPoint{X: x, Values: make(map[string]float64, len(rows))}
	for _, r := range rows {
		sp.Values[r.Method] = r.Summary.CMF
	}
	return sp, nil
}

// Figure7a regenerates Fig. 7(a): CMF50 bucketed by the trip's distance
// to the city center (5 levels).
func Figure7a(s *Suite) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	trips := ds.TestTrips()
	// Bucket trips by centroid distance to the center, 5 equal-count
	// levels ordered urban → rural.
	type bucketed struct {
		trip *traj.Trip
		r    float64
	}
	bs := make([]bucketed, len(trips))
	for i, tr := range trips {
		centroid := tr.PathGeom.At(tr.PathGeom.Length() / 2)
		bs[i] = bucketed{tr, centroid.Dist(ds.Center)}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].r < bs[j].r })
	const levels = 5
	points := make([]SeriesPoint, 0, levels)
	for lvl := 0; lvl < levels; lvl++ {
		lo, hi := lvl*len(bs)/levels, (lvl+1)*len(bs)/levels
		if hi <= lo {
			continue
		}
		group := make([]*traj.Trip, 0, hi-lo)
		var meanR float64
		for _, b := range bs[lo:hi] {
			group = append(group, b.trip)
			meanR += b.r
		}
		meanR /= float64(len(group))
		sp, err := s.cmfPoint(meanR, group)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	return points, nil
}

// Figure7bRates are the sampling rates (samples per minute) of
// Fig. 7(b).
var Figure7bRates = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4}

// Figure7b regenerates Fig. 7(b): CMF50 as the cellular sampling rate
// varies, by resampling the test trajectories.
func Figure7b(s *Suite) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	trips := ds.TestTrips()
	points := make([]SeriesPoint, 0, len(Figure7bRates))
	for _, rate := range Figure7bRates {
		minGap := 60.0 / rate
		// Resampled copies of the test trips.
		resampled := make([]traj.Trip, 0, len(trips))
		for _, tr := range trips {
			rt := *tr
			rt.Cell = tr.Cell.Resample(minGap)
			if len(rt.Cell) >= 2 {
				resampled = append(resampled, rt)
			}
		}
		group := make([]*traj.Trip, len(resampled))
		for i := range resampled {
			group[i] = &resampled[i]
		}
		if len(group) == 0 {
			continue
		}
		sp, err := s.cmfPoint(rate, group)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	return points, nil
}

// Figure8Ks are the candidate counts swept in Fig. 8.
var Figure8Ks = []int{10, 20, 30, 40, 50, 60}

// Figure8 regenerates Fig. 8: LHMM accuracy vs. candidate number k.
func Figure8(s *Suite) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	model, err := s.LHMM()
	if err != nil {
		return nil, err
	}
	trips := ds.TestTrips()
	points := make([]SeriesPoint, 0, len(Figure8Ks))
	for _, k := range Figure8Ks {
		mm := *model
		mm.Cfg.K = k
		summary, _ := EvaluateMethod(ds, LHMMMethod("LHMM", &mm), trips, CMFCorridor)
		points = append(points, SeriesPoint{
			X: float64(k),
			Values: map[string]float64{
				"Precision": summary.Precision,
				"CMF50":     summary.CMF,
				"HR":        summary.HR,
			},
		})
	}
	return points, nil
}

// Figure9Ks are the shortcut counts swept in Fig. 9.
var Figure9Ks = []int{0, 1, 2, 3, 4}

// Figure9 regenerates Fig. 9: LHMM accuracy vs. shortcut number K.
func Figure9(s *Suite) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	model, err := s.LHMM()
	if err != nil {
		return nil, err
	}
	trips := ds.TestTrips()
	points := make([]SeriesPoint, 0, len(Figure9Ks))
	for _, k := range Figure9Ks {
		mm := *model
		mm.Cfg.Shortcuts = k
		summary, _ := EvaluateMethod(ds, LHMMMethod("LHMM", &mm), trips, CMFCorridor)
		points = append(points, SeriesPoint{
			X: float64(k),
			Values: map[string]float64{
				"Precision": summary.Precision,
				"CMF50":     summary.CMF,
			},
		})
	}
	return points, nil
}

// Figure10a regenerates Fig. 10(a): CMF50 for trips interacting with
// one (busy) tower, as the number of its associated training
// trajectories grows. Each x-position trains a model on a subset.
func Figure10a(s *Suite, levels []int) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	// Busiest tower by training-trip interactions.
	counts := map[int]int{}
	for _, tr := range ds.TrainTrips() {
		seen := map[int]bool{}
		for _, cp := range tr.Cell {
			seen[int(cp.Tower)] = true
		}
		for t := range seen {
			counts[t]++
		}
	}
	busiest := busiestTower(counts)
	if busiest < 0 {
		return nil, fmt.Errorf("figure10a: no tower interactions")
	}
	interacts := func(tr *traj.Trip) bool {
		for _, cp := range tr.Cell {
			if int(cp.Tower) == busiest {
				return true
			}
		}
		return false
	}
	// Test trips touching the tower.
	var evalTrips []*traj.Trip
	for _, tr := range ds.TestTrips() {
		if interacts(tr) {
			evalTrips = append(evalTrips, tr)
		}
	}
	if len(evalTrips) == 0 {
		return nil, fmt.Errorf("figure10a: no test trips interact with the busiest tower")
	}
	// Training subsets: all non-interacting trips plus the first n
	// interacting ones.
	var inter, other []int
	for _, idx := range ds.Train {
		if interacts(&ds.Trips[idx]) {
			inter = append(inter, idx)
		} else {
			other = append(other, idx)
		}
	}
	points := make([]SeriesPoint, 0, len(levels))
	for _, n := range levels {
		if n > len(inter) {
			n = len(inter)
		}
		sub := *ds
		sub.Train = append(append([]int(nil), other...), inter[:n]...)
		model, err := core.Train(&sub, s.Cfg.LHMM)
		if err != nil {
			return nil, err
		}
		summary, _ := EvaluateMethod(ds, LHMMMethod("LHMM", model), evalTrips, CMFCorridor)
		points = append(points, SeriesPoint{
			X:      float64(n),
			Values: map[string]float64{"CMF50": summary.CMF},
		})
	}
	return points, nil
}

// busiestTower returns the tower with the highest count, the lowest
// tower id among ties, or -1 when counts is empty.
func busiestTower(counts map[int]int) int {
	busiest, best := -1, 0
	for t, c := range counts {
		if c > best || (c == best && t < busiest) {
			busiest, best = t, c
		}
	}
	return busiest
}

// Figure10b regenerates Fig. 10(b): accuracy as the total number of
// historical (training) trajectories grows.
func Figure10b(s *Suite, fractions []float64) ([]SeriesPoint, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	trips := ds.TestTrips()
	points := make([]SeriesPoint, 0, len(fractions))
	for _, f := range fractions {
		n := int(math.Max(1, f*float64(len(ds.Train))))
		sub := *ds
		sub.Train = ds.Train[:n]
		model, err := core.Train(&sub, s.Cfg.LHMM)
		if err != nil {
			return nil, err
		}
		summary, _ := EvaluateMethod(ds, LHMMMethod("LHMM", model), trips, CMFCorridor)
		points = append(points, SeriesPoint{
			X: float64(n),
			Values: map[string]float64{
				"CMF50":     summary.CMF,
				"Precision": summary.Precision,
			},
		})
	}
	return points, nil
}

// FormatSeries renders figure data as an aligned text table.
func FormatSeries(title, xLabel string, points []SeriesPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(points) == 0 {
		return b.String()
	}
	var keys []string
	for k := range points[0].Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, k := range keys {
		fmt.Fprintf(&b, " %14s", k)
	}
	b.WriteString("\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14.2f", p.X)
		for _, k := range keys {
			fmt.Fprintf(&b, " %14.3f", p.Values[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

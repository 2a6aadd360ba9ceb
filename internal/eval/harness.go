// Package eval is the experiment harness: it evaluates any matching
// method over a dataset's test trips, aggregates the paper's metrics,
// and regenerates every table and figure of the evaluation section
// (Tables I–III, Figures 7–11). See DESIGN.md §5 for the experiment
// index.
package eval

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/traj"
)

// Harness telemetry (internal/obs).
var (
	obsEvalTrips  = obs.Default.Counter("eval.trips")
	obsEvalErrors = obs.Default.Counter("eval.trip.errors")
	obsEvalTripS  = obs.Default.Histogram("eval.trip.seconds", obs.LatencyBuckets)
)

// LHMMMethod adapts a trained core.Model to the Method interface.
func LHMMMethod(name string, m *core.Model) baselines.Method {
	return &baselines.FuncMethod{
		MethodName: name,
		Fn: func(ct traj.CellTrajectory) (*baselines.Output, error) {
			res, err := m.Match(ct)
			if err != nil {
				return nil, err
			}
			return baselines.ResultToOutput(res), nil
		},
	}
}

// TripResult is one trip's evaluation outcome.
type TripResult struct {
	TripID  int
	Metrics metrics.PathMetrics
	HR      float64
	HasHR   bool
	Seconds float64
	Err     error
}

// EvaluateMethod runs the method over the trips in parallel and
// aggregates the paper's metrics with the given CMF corridor radius.
// Matching wall time is measured per trip (the paper's Avg Time).
func EvaluateMethod(ds *traj.Dataset, m baselines.Method, trips []*traj.Trip, corridor float64) (metrics.Summary, []TripResult) {
	evalStart := time.Now()
	results := make([]TripResult, len(trips))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, tr := range trips {
		wg.Add(1)
		go func(i int, tr *traj.Trip) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			out, err := m.Match(tr.Cell)
			elapsed := time.Since(start).Seconds()
			obsEvalTrips.Inc()
			obsEvalTripS.Observe(elapsed)
			r := TripResult{TripID: tr.ID, Seconds: elapsed, Err: err}
			if err == nil {
				r.Metrics = metrics.EvalPath(ds.Net, out.Path, tr.Path, corridor)
				if out.Candidates != nil {
					r.HR = metrics.HittingRatio(out.Candidates, tr.Path)
					r.HasHR = true
				}
			} else {
				obsEvalErrors.Inc()
			}
			results[i] = r
		}(i, tr)
	}
	wg.Wait()

	var acc metrics.Accum
	for _, r := range results {
		if r.Err != nil {
			// A method failing a trip counts as a total mismatch, the
			// fairest aggregate treatment.
			acc.Add(metrics.PathMetrics{RMF: 1, CMF: 1})
			acc.AddTime(r.Seconds)
			continue
		}
		acc.Add(r.Metrics)
		acc.AddTime(r.Seconds)
		if r.HasHR {
			acc.AddHR(r.HR)
		}
	}
	summary := acc.Summary()
	obs.Logger().Debug("eval: method evaluated",
		"method", m.Name(), "trips", len(trips),
		"cmf50", summary.CMF, "rmf", summary.RMF,
		"avg_trip_s", summary.AvgTimeS,
		"wall_s", time.Since(evalStart).Seconds())
	return summary, results
}

// CMFCorridor is the corridor radius in meters of the CMF every
// experiment reports (the paper's CMF50).
const CMFCorridor = 50

// Row is one rendered table row: a method name and its summary.
type Row struct {
	Method  string
	Summary metrics.Summary
}

// rows resolves each named method through Method and evaluates it on
// trips, one Row per name in order.
func (s *Suite) rows(names []string, trips []*traj.Trip) ([]Row, error) {
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(names))
	for _, name := range names {
		m, err := s.Method(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		summary, _ := EvaluateMethod(ds, m, trips, CMFCorridor)
		rows = append(rows, Row{Method: name, Summary: summary})
	}
	return rows, nil
}

// FormatRows renders rows in the paper's Table II shape.
func FormatRows(title string, rows []Row) string {
	out := fmt.Sprintf("%s\n%-15s %9s %9s %9s %9s %9s %12s\n",
		title, "Method", "Precision", "Recall", "RMF", "CMF50", "HR", "AvgTime(s)")
	for _, r := range rows {
		hr := "    -"
		if !isNaN(r.Summary.HR) {
			hr = fmt.Sprintf("%9.3f", r.Summary.HR)
		}
		out += fmt.Sprintf("%-15s %9.3f %9.3f %9.3f %9.3f %9s %12.4f\n",
			r.Method, r.Summary.Precision, r.Summary.Recall, r.Summary.RMF,
			r.Summary.CMF, hr, r.Summary.AvgTimeS)
	}
	return out
}

func isNaN(f float64) bool { return f != f }

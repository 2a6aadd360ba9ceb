package serve

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Learned-score drift monitoring. When the server is started with a
// training-time baseline (lhmm train writes one next to the model),
// the matcher's drift sketches collect live score distributions and
// GET /v1/drift reports the PSI/KL divergence per signal. The same
// comparison feeds lhmm_drift_* gauges on /metrics and the
// QualityMonitor's score_drift check, which lhmm-serve turns on
// whenever -drift-baseline is given, at the fixed PSI action level
// sloDriftPSI = 0.25 (cmd/lhmm-serve).

// Drift gauges (milli-PSI: PSI is a small float, gauges are int64).
var (
	obsDriftMaxPSI  = obs.Default.Gauge("drift.max.psi.milli")
	obsDriftSignals = map[string]*obs.Gauge{
		"emission":   obs.Default.Gauge("drift.emission.psi.milli"),
		"transition": obs.Default.Gauge("drift.transition.psi.milli"),
		"candidates": obs.Default.Gauge("drift.candidates.psi.milli"),
		"degraded":   obs.Default.Gauge("drift.degraded.psi.milli"),
	}
)

// DriftResponse is the body of GET /v1/drift.
type DriftResponse struct {
	// Status is "disabled" (no baseline), "ok", or "drift" (some signal
	// exceeded the configured threshold).
	Status string `json:"status"`
	// Baseline provenance.
	BaselinePath    string `json:"baseline_path,omitempty"`
	BaselineModel   string `json:"baseline_model,omitempty"`
	BaselineCreated string `json:"baseline_created,omitempty"`
	// Threshold is the configured max PSI (0 = report-only).
	Threshold float64 `json:"threshold,omitempty"`
	// MaxPSI / MaxSignal headline the worst-drifting signal.
	MaxPSI    float64 `json:"max_psi"`
	MaxSignal string  `json:"max_signal,omitempty"`
	// Signals holds the per-signal comparison.
	Signals map[string]obs.SignalDrift `json:"signals,omitempty"`
}

// driftProbe caches the baseline comparison for the QualityMonitor's
// DriftProbe hook, which runs under the monitor's lock on every
// RecordMatch evaluation — the comparison itself is cheap (a few
// hundred bucket ops) but not free, so one result is reused for a
// short interval.
type driftProbe struct {
	base *obs.DriftBaseline

	mu   sync.Mutex
	last time.Time
	val  float64
}

const driftProbeTTL = 5 * time.Second

func (p *driftProbe) value() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.last.IsZero() && time.Since(p.last) < driftProbeTTL {
		return p.val
	}
	cmp := obs.DefaultDrift.Compare(p.base)
	p.val = cmp.MaxPSI
	p.last = time.Now()
	return p.val
}

// updateDriftGauges mirrors a comparison into the lhmm_drift_* gauges.
func updateDriftGauges(cmp obs.DriftComparison) {
	obsDriftMaxPSI.Set(int64(cmp.MaxPSI * 1000))
	for name, g := range obsDriftSignals {
		if sd, ok := cmp.Signals[name]; ok {
			g.Set(int64(sd.PSI * 1000))
		}
	}
}

// compareDrift runs a fresh live-vs-baseline comparison and refreshes
// the gauges.
func (s *Server) compareDrift() obs.DriftComparison {
	cmp := obs.DefaultDrift.Compare(s.cfg.DriftBaseline)
	updateDriftGauges(cmp)
	return cmp
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DriftBaseline == nil {
		writeJSON(w, http.StatusOK, DriftResponse{Status: "disabled"})
		return
	}
	cmp := s.compareDrift()
	resp := DriftResponse{
		Status:          "ok",
		BaselinePath:    s.cfg.DriftBaselinePath,
		BaselineModel:   s.cfg.DriftBaseline.Model,
		BaselineCreated: s.cfg.DriftBaseline.CreatedAt,
		Threshold:       s.cfg.Quality.MaxDriftPSI,
		MaxPSI:          cmp.MaxPSI,
		MaxSignal:       cmp.MaxSignal,
		Signals:         cmp.Signals,
	}
	if thr := s.cfg.Quality.MaxDriftPSI; thr > 0 && cmp.MaxPSI > thr {
		resp.Status = "drift"
	}
	writeJSON(w, http.StatusOK, resp)
}

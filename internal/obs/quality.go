package obs

import (
	"log/slog"
	"sync"
	"time"
)

// Online quality/SLO monitoring. The matcher's quality signals —
// degraded-mode fallbacks, gaps/breaks, empty-candidate failures, load
// shedding, and tail latency — are exactly the "is the learned model
// still beating the classical one" telemetry a deployed map-matcher
// needs (cf. LHMM §IV-C/D: the learned probabilities are the value
// claim; when they go non-finite we fall back to Eq. 2/3 and the
// degraded rate counts those fallbacks). QualityMonitor keeps a sliding
// window of those signals as a ring of time slots and compares
// windowed rates against configured SLO thresholds.

// QualityConfig configures the sliding window and the SLO thresholds.
// A zero threshold disables that check.
type QualityConfig struct {
	// Window is the sliding-window length (default 60s) split into
	// Slots ring slots (default 6); expired slots are recycled lazily.
	Window time.Duration
	Slots  int

	// MinSamples gates threshold evaluation: with fewer matches in the
	// window than this, the monitor always reports ok (default 10) so
	// a single early failure can't flip readiness detail.
	MinSamples int

	// Rates are fractions in [0,1]. Degraded and gap rates are per
	// completed match; empty-candidate and shed rates are per request.
	MaxDegradedRate float64
	MaxGapRate      float64
	MaxEmptyRate    float64
	MaxShedRate     float64

	// MaxP99 bounds the windowed p99 match latency (0 disables).
	MaxP99 time.Duration

	// OnTransition, when set, is called (outside the monitor lock)
	// whenever the degraded status flips, with the new status and the
	// violated thresholds.
	OnTransition func(degraded bool, violations []string)

	// now overrides the clock in tests.
	now func() time.Time
}

func (c QualityConfig) withDefaults() QualityConfig {
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
	if c.Slots <= 0 {
		c.Slots = 6
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// qSlot is one time slice of the sliding window.
type qSlot struct {
	start    time.Time
	requests int64
	matches  int64
	degraded int64
	gapped   int64
	empty    int64
	shed     int64
	latency  []int64 // per-LatencyBuckets counts, len(bounds)+1
	latSum   float64
}

// QualityMonitor tracks windowed quality rates against SLO thresholds.
// Safe for concurrent use. The zero value is not usable; call
// NewQualityMonitor.
type QualityMonitor struct {
	cfg     QualityConfig
	slotDur time.Duration

	mu       sync.Mutex
	slots    []qSlot
	degraded bool
}

// NewQualityMonitor creates a monitor with the given config (zero
// fields take documented defaults).
func NewQualityMonitor(cfg QualityConfig) *QualityMonitor {
	cfg = cfg.withDefaults()
	m := &QualityMonitor{
		cfg:     cfg,
		slotDur: cfg.Window / time.Duration(cfg.Slots),
		slots:   make([]qSlot, cfg.Slots),
	}
	for i := range m.slots {
		m.slots[i].latency = make([]int64, len(LatencyBuckets)+1)
	}
	return m
}

// slot returns the ring slot for now, recycling it if its epoch has
// passed. Callers hold mu.
func (m *QualityMonitor) slot(now time.Time) *qSlot {
	epoch := now.Truncate(m.slotDur)
	s := &m.slots[(epoch.UnixNano()/int64(m.slotDur))%int64(len(m.slots))]
	if !s.start.Equal(epoch) {
		*s = qSlot{start: epoch, latency: s.latency}
		for i := range s.latency {
			s.latency[i] = 0
		}
	}
	return s
}

// RecordMatch records one completed match: its latency and whether it
// ran degraded (any learned-score fallback) or gapped (breaks in the
// recovered path).
func (m *QualityMonitor) RecordMatch(d time.Duration, degraded, gapped bool) {
	if m == nil {
		return
	}
	now := m.cfg.now()
	m.mu.Lock()
	s := m.slot(now)
	s.requests++
	s.matches++
	if degraded {
		s.degraded++
	}
	if gapped {
		s.gapped++
	}
	v := d.Seconds()
	i := 0
	for i < len(LatencyBuckets) && v > LatencyBuckets[i] {
		i++
	}
	s.latency[i]++
	s.latSum += v
	m.evaluateLocked(now)
	m.mu.Unlock()
}

// RecordEmpty records a request that failed because no candidates
// survived for some point.
func (m *QualityMonitor) RecordEmpty() { m.record(func(s *qSlot) { s.requests++; s.empty++ }) }

// RecordShed records a request shed by admission control.
func (m *QualityMonitor) RecordShed() { m.record(func(s *qSlot) { s.requests++; s.shed++ }) }

// RecordError records a request that failed for any other reason; it
// counts toward the request denominator only.
func (m *QualityMonitor) RecordError() { m.record(func(s *qSlot) { s.requests++ }) }

func (m *QualityMonitor) record(f func(*qSlot)) {
	if m == nil {
		return
	}
	now := m.cfg.now()
	m.mu.Lock()
	f(m.slot(now))
	m.evaluateLocked(now)
	m.mu.Unlock()
}

// windowTotals sums live slots. Callers hold mu.
func (m *QualityMonitor) windowTotals(now time.Time) qSlot {
	var t qSlot
	t.latency = make([]int64, len(LatencyBuckets)+1)
	cutoff := now.Add(-m.cfg.Window)
	for i := range m.slots {
		s := &m.slots[i]
		if s.start.IsZero() || !s.start.After(cutoff) {
			continue
		}
		t.requests += s.requests
		t.matches += s.matches
		t.degraded += s.degraded
		t.gapped += s.gapped
		t.empty += s.empty
		t.shed += s.shed
		t.latSum += s.latSum
		for j, c := range s.latency {
			t.latency[j] += c
		}
	}
	return t
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// violations computes the list of violated thresholds. Callers hold mu.
func (m *QualityMonitor) violationsLocked(t qSlot) []string {
	if t.matches < int64(m.cfg.MinSamples) {
		return nil
	}
	var v []string
	if m.cfg.MaxDegradedRate > 0 && rate(t.degraded, t.matches) > m.cfg.MaxDegradedRate {
		v = append(v, "degraded_rate")
	}
	if m.cfg.MaxGapRate > 0 && rate(t.gapped, t.matches) > m.cfg.MaxGapRate {
		v = append(v, "gap_rate")
	}
	if m.cfg.MaxEmptyRate > 0 && rate(t.empty, t.requests) > m.cfg.MaxEmptyRate {
		v = append(v, "empty_rate")
	}
	if m.cfg.MaxShedRate > 0 && rate(t.shed, t.requests) > m.cfg.MaxShedRate {
		v = append(v, "shed_rate")
	}
	if m.cfg.MaxP99 > 0 && bucketQuantile(LatencyBuckets, t.latency, 0.99) > m.cfg.MaxP99.Seconds() {
		v = append(v, "p99_latency")
	}
	return v
}

// evaluateLocked re-checks thresholds against the current window and
// fires the transition log + callback on a status flip. Callers hold
// mu; the lock is released around the log/callback so user callbacks
// cannot deadlock against the monitor.
func (m *QualityMonitor) evaluateLocked(now time.Time) {
	t := m.windowTotals(now)
	viol := m.violationsLocked(t)
	degraded := len(viol) > 0
	if degraded == m.degraded {
		return
	}
	m.degraded = degraded
	cb := m.cfg.OnTransition
	m.mu.Unlock()
	if degraded {
		Logger().Warn("quality degraded", slog.Any("violations", viol),
			slog.Float64("degraded_rate", rate(t.degraded, t.matches)),
			slog.Float64("gap_rate", rate(t.gapped, t.matches)),
			slog.Float64("empty_rate", rate(t.empty, t.requests)),
			slog.Float64("shed_rate", rate(t.shed, t.requests)),
			slog.Float64("p99_s", bucketQuantile(LatencyBuckets, t.latency, 0.99)))
	} else {
		Logger().Info("quality recovered")
	}
	if cb != nil {
		cb(degraded, viol)
	}
	m.mu.Lock()
}

// Degraded reports whether any SLO threshold is currently violated.
// It re-evaluates the window, so a quiet period (slots expiring with
// no traffic) recovers without needing new requests.
func (m *QualityMonitor) Degraded() bool {
	if m == nil {
		return false
	}
	now := m.cfg.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evaluateLocked(now)
	return m.degraded
}

// QualityReport is the JSON shape served at /v1/quality.
type QualityReport struct {
	WindowS      float64  `json:"window_s"`
	Requests     int64    `json:"requests"`
	Matches      int64    `json:"matches"`
	DegradedRate float64  `json:"degraded_rate"`
	GapRate      float64  `json:"gap_rate"`
	EmptyRate    float64  `json:"empty_rate"`
	ShedRate     float64  `json:"shed_rate"`
	P50S         float64  `json:"p50_s"`
	P95S         float64  `json:"p95_s"`
	P99S         float64  `json:"p99_s"`
	Status       string   `json:"status"` // "ok" | "degraded"
	Violations   []string `json:"violations,omitempty"`

	Thresholds QualityThresholds `json:"thresholds"`
}

// QualityThresholds echoes the configured SLOs in the report.
type QualityThresholds struct {
	MaxDegradedRate float64 `json:"max_degraded_rate,omitempty"`
	MaxGapRate      float64 `json:"max_gap_rate,omitempty"`
	MaxEmptyRate    float64 `json:"max_empty_rate,omitempty"`
	MaxShedRate     float64 `json:"max_shed_rate,omitempty"`
	MaxP99S         float64 `json:"max_p99_s,omitempty"`
	MinSamples      int     `json:"min_samples"`
}

// Report captures the windowed rates and status.
func (m *QualityMonitor) Report() QualityReport {
	if m == nil {
		return QualityReport{Status: "ok"}
	}
	now := m.cfg.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evaluateLocked(now)
	t := m.windowTotals(now)
	viol := m.violationsLocked(t)
	r := QualityReport{
		WindowS:      m.cfg.Window.Seconds(),
		Requests:     t.requests,
		Matches:      t.matches,
		DegradedRate: rate(t.degraded, t.matches),
		GapRate:      rate(t.gapped, t.matches),
		EmptyRate:    rate(t.empty, t.requests),
		ShedRate:     rate(t.shed, t.requests),
		P50S:         bucketQuantile(LatencyBuckets, t.latency, 0.50),
		P95S:         bucketQuantile(LatencyBuckets, t.latency, 0.95),
		P99S:         bucketQuantile(LatencyBuckets, t.latency, 0.99),
		Status:       "ok",
		Violations:   viol,
		Thresholds: QualityThresholds{
			MaxDegradedRate: m.cfg.MaxDegradedRate,
			MaxGapRate:      m.cfg.MaxGapRate,
			MaxEmptyRate:    m.cfg.MaxEmptyRate,
			MaxShedRate:     m.cfg.MaxShedRate,
			MaxP99S:         m.cfg.MaxP99.Seconds(),
			MinSamples:      m.cfg.MinSamples,
		},
	}
	if m.degraded {
		r.Status = "degraded"
	}
	return r
}

// P99 returns the windowed p99 match latency in seconds.
func (m *QualityMonitor) P99() float64 {
	if m == nil {
		return 0
	}
	now := m.cfg.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.windowTotals(now)
	return bucketQuantile(LatencyBuckets, t.latency, 0.99)
}

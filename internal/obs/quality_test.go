package obs

import (
	"sync"
	"testing"
	"time"
)

// qmClock is an injectable test clock for the quality monitor.
type qmClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *qmClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *qmClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newQMClock() *qmClock {
	return &qmClock{t: time.Unix(1_700_000_000, 0)}
}

func TestQualityDegradedAndRecovery(t *testing.T) {
	clk := newQMClock()
	var mu sync.Mutex
	var transitions []bool
	var lastViol []string
	m := NewQualityMonitor(QualityConfig{
		Window:          10 * time.Second,
		Slots:           5,
		MinSamples:      5,
		MaxDegradedRate: 0.20,
		OnTransition: func(degraded bool, viol []string) {
			mu.Lock()
			transitions = append(transitions, degraded)
			lastViol = viol
			mu.Unlock()
		},
		now: clk.now,
	})

	// Ten clean matches: ok.
	for i := 0; i < 10; i++ {
		m.RecordMatch(time.Millisecond, false, false)
	}
	if m.Degraded() {
		t.Fatal("degraded after clean matches")
	}
	// Enough degraded matches to push the rate past 20%.
	for i := 0; i < 5; i++ {
		m.RecordMatch(time.Millisecond, true, false)
	}
	if !m.Degraded() {
		t.Fatal("not degraded at 5/15 degraded rate vs 0.20 threshold")
	}
	mu.Lock()
	if len(transitions) == 0 || !transitions[len(transitions)-1] {
		t.Fatalf("no degraded transition fired: %v", transitions)
	}
	if len(lastViol) != 1 || lastViol[0] != "degraded_rate" {
		t.Fatalf("violations = %v, want [degraded_rate]", lastViol)
	}
	mu.Unlock()

	rep := m.Report()
	if rep.Status != "degraded" {
		t.Errorf("report status %q, want degraded", rep.Status)
	}
	if rep.Matches != 15 || rep.Requests != 15 {
		t.Errorf("report counts %d/%d, want 15/15", rep.Matches, rep.Requests)
	}
	if want := 5.0 / 15.0; rep.DegradedRate != want {
		t.Errorf("degraded rate %g, want %g", rep.DegradedRate, want)
	}

	// A quiet window expires the bad slots: recovery without traffic.
	clk.advance(11 * time.Second)
	if m.Degraded() {
		t.Fatal("still degraded after the window expired")
	}
	mu.Lock()
	if transitions[len(transitions)-1] {
		t.Fatalf("no recovery transition fired: %v", transitions)
	}
	mu.Unlock()
}

// Below MinSamples the monitor always reports ok, so one early failure
// cannot flip readiness.
func TestQualityMinSamplesGate(t *testing.T) {
	clk := newQMClock()
	m := NewQualityMonitor(QualityConfig{
		Window:          10 * time.Second,
		MinSamples:      10,
		MaxDegradedRate: 0.01,
		now:             clk.now,
	})
	for i := 0; i < 9; i++ {
		m.RecordMatch(time.Millisecond, true, false) // 100% degraded
	}
	if m.Degraded() {
		t.Fatal("degraded below the MinSamples gate")
	}
	m.RecordMatch(time.Millisecond, true, false)
	if !m.Degraded() {
		t.Fatal("not degraded once the gate is met")
	}
}

func TestQualityRequestRates(t *testing.T) {
	clk := newQMClock()
	m := NewQualityMonitor(QualityConfig{
		Window:       10 * time.Second,
		MinSamples:   5,
		MaxShedRate:  0.10,
		MaxEmptyRate: 0.30,
		now:          clk.now,
	})
	for i := 0; i < 10; i++ {
		m.RecordMatch(time.Millisecond, false, false)
	}
	m.RecordEmpty()
	m.RecordError()
	for i := 0; i < 3; i++ {
		m.RecordShed()
	}
	rep := m.Report()
	if rep.Requests != 15 || rep.Matches != 10 {
		t.Fatalf("counts %d/%d, want requests 15 matches 10", rep.Requests, rep.Matches)
	}
	if want := 3.0 / 15.0; rep.ShedRate != want {
		t.Errorf("shed rate %g, want %g", rep.ShedRate, want)
	}
	if want := 1.0 / 15.0; rep.EmptyRate != want {
		t.Errorf("empty rate %g, want %g", rep.EmptyRate, want)
	}
	if !m.Degraded() {
		t.Error("shed rate 0.2 vs threshold 0.1 should degrade")
	}
	if len(rep.Violations) != 1 || rep.Violations[0] != "shed_rate" {
		t.Errorf("violations %v, want [shed_rate]", rep.Violations)
	}
}

func TestQualityP99Threshold(t *testing.T) {
	clk := newQMClock()
	m := NewQualityMonitor(QualityConfig{
		Window:     10 * time.Second,
		MinSamples: 5,
		MaxP99:     10 * time.Millisecond,
		now:        clk.now,
	})
	for i := 0; i < 20; i++ {
		m.RecordMatch(500*time.Millisecond, false, false)
	}
	if !m.Degraded() {
		t.Fatal("p99 far above MaxP99 should degrade")
	}
	rep := m.Report()
	if len(rep.Violations) != 1 || rep.Violations[0] != "p99_latency" {
		t.Fatalf("violations %v, want [p99_latency]", rep.Violations)
	}
	if rep.P99S < 0.1 {
		t.Errorf("windowed p99 %gs implausibly low for 500ms matches", rep.P99S)
	}
	if m.P99() != rep.P99S {
		t.Errorf("P99() %g disagrees with report %g", m.P99(), rep.P99S)
	}
}

// The slot ring only remembers Window's worth of signal: old samples
// roll off as the clock advances slot by slot.
func TestQualitySlidingWindow(t *testing.T) {
	clk := newQMClock()
	m := NewQualityMonitor(QualityConfig{
		Window:          10 * time.Second,
		Slots:           5,
		MinSamples:      1,
		MaxDegradedRate: 0.5,
		now:             clk.now,
	})
	m.RecordMatch(time.Millisecond, true, false)
	if !m.Degraded() {
		t.Fatal("single degraded match above threshold should degrade")
	}
	// Fresh clean traffic in later slots dilutes, then expires, it.
	for i := 0; i < 5; i++ {
		clk.advance(2 * time.Second)
		m.RecordMatch(time.Millisecond, false, false)
	}
	if m.Degraded() {
		rep := m.Report()
		t.Fatalf("still degraded after the bad slot rolled off: %+v", rep)
	}
}

func TestQualityNilMonitor(t *testing.T) {
	var m *QualityMonitor
	m.RecordMatch(time.Second, true, true)
	m.RecordEmpty()
	m.RecordShed()
	m.RecordError()
	if m.Degraded() {
		t.Error("nil monitor degraded")
	}
	if m.P99() != 0 {
		t.Error("nil monitor p99 != 0")
	}
	if rep := m.Report(); rep.Status != "ok" {
		t.Errorf("nil monitor report status %q", rep.Status)
	}
}

// OnTransition must fire exactly once per state change, not once per
// evaluation while the state persists.
func TestQualityCallbackOncePerTransition(t *testing.T) {
	clk := newQMClock()
	calls := 0
	m := NewQualityMonitor(QualityConfig{
		Window:          10 * time.Second,
		MinSamples:      1,
		MaxDegradedRate: 0.5,
		OnTransition:    func(bool, []string) { calls++ },
		now:             clk.now,
	})
	// Drive hard into degraded and stay there across many evaluations.
	for i := 0; i < 20; i++ {
		m.RecordMatch(time.Millisecond, true, false)
	}
	if !m.Degraded() {
		t.Fatal("not degraded at 100% degraded rate")
	}
	if calls != 1 {
		t.Fatalf("OnTransition fired %d times entering degraded, want exactly 1", calls)
	}
	// Recover (quiet window) and re-degrade: exactly two more firings.
	clk.advance(11 * time.Second)
	if m.Degraded() {
		t.Fatal("still degraded after window expiry")
	}
	if calls != 2 {
		t.Fatalf("OnTransition fired %d times after recovery, want 2", calls)
	}
	for i := 0; i < 20; i++ {
		m.RecordMatch(time.Millisecond, true, false)
	}
	if calls != 3 {
		t.Fatalf("OnTransition fired %d times after re-degrading, want 3", calls)
	}
}

package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/traj"
)

// TestMatchContextPanicRecovered corrupts the model/config agreement
// (the classic way a mismatched weights file crashes inference: nn
// panics on matrix shape mismatches) and checks the public boundary
// turns the panic into an error instead of unwinding.
func TestMatchContextPanicRecovered(t *testing.T) {
	d := testDataset(t, 10)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := d.TestTrips()[0].Cell
	m.Cfg.Dim *= 2 // config now disagrees with every weight matrix
	_, err = m.Match(ct)
	if err == nil {
		t.Fatal("shape-mismatched model did not error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error does not identify the recovered panic: %v", err)
	}
}

// TestMatchContextCancellation checks a canceled context stops the
// learned matcher with the context error wrapped.
func TestMatchContextCancellation(t *testing.T) {
	d := testDataset(t, 10)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.MatchContext(ctx, d.TestTrips()[0].Cell); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestChaosLearnedPipeline arms every inference failpoint at once and
// hammers the learned matcher: with Skip/Split policies armed faults
// must never error or panic, and disarming must restore clean runs.
func TestChaosLearnedPipeline(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	d := testDataset(t, 12)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trips := d.TestTrips()
	if len(trips) > 3 {
		trips = trips[:3]
	}
	for _, policy := range []hmm.BreakPolicy{hmm.BreakSkip, hmm.BreakSplit} {
		faultinject.DisarmAll()
		if err := faultinject.Arm("hmm.candidates.empty:5,core.trans.nan:3,hmm.trans.nan:2"); err != nil {
			t.Fatal(err)
		}
		m.Cfg.OnBreak = policy
		m.Cfg.Sanitize = traj.SanitizeDrop
		for _, tr := range trips {
			res, err := m.Match(tr.Cell)
			if err != nil {
				t.Fatalf("policy=%v trip %d: %v", policy, tr.ID, err)
			}
			if len(res.Matched) == 0 {
				t.Fatalf("policy=%v trip %d: empty result", policy, tr.ID)
			}
		}
	}
	faultinject.DisarmAll()
	m.Cfg.OnBreak = hmm.BreakError
	m.Cfg.Sanitize = traj.SanitizeStrict
	res, err := m.Match(trips[0].Cell)
	if err != nil {
		t.Fatalf("disarmed match failed: %v", err)
	}
	if res.Degraded != 0 {
		t.Errorf("disarmed run counted %d degraded events", res.Degraded)
	}
	dead := 0
	for _, dd := range res.Dead {
		if dd {
			dead++
		}
	}
	if dead != 0 {
		t.Errorf("disarmed run marked %d dead points", dead)
	}
}

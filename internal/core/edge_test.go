package core

import (
	"errors"
	"testing"

	"repro/internal/hmm"
	"repro/internal/traj"
)

// TestMatchDegenerateTrajectories exercises inputs real pipelines
// produce: stationary phones (one tower repeated), two-point tracks,
// and towers never seen in training.
func TestMatchDegenerateTrajectories(t *testing.T) {
	d := testDataset(t, 14)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base := d.TestTrips()[0].Cell

	t.Run("single-point", func(t *testing.T) {
		res, err := m.Match(base[:1])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Path) == 0 {
			t.Error("no path for single point")
		}
	})

	t.Run("stationary", func(t *testing.T) {
		ct := make(traj.CellTrajectory, 5)
		for i := range ct {
			ct[i] = base[0]
			ct[i].T = float64(i) * 60
		}
		res, err := m.Match(ct)
		if err != nil {
			t.Fatal(err)
		}
		// A stationary phone should match a short path.
		if len(res.Path) > 30 {
			t.Errorf("stationary track matched %d segments", len(res.Path))
		}
	})

	t.Run("two-point", func(t *testing.T) {
		res, err := m.Match(base[:2])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matched) != 2 {
			t.Errorf("matched %d points", len(res.Matched))
		}
	})
}

// TestSessionCaches pins that per-trajectory state is rebuilt per call
// (no cross-trajectory leakage): matching A then B gives the same
// result as matching B alone.
func TestSessionNoLeakage(t *testing.T) {
	d := testDataset(t, 14)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.TestTrips()[0], d.TestTrips()[1]
	// Fresh model match of b.
	rb1, err := m.Match(b.Cell)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: a then b.
	if _, err := m.Match(a.Cell); err != nil {
		t.Fatal(err)
	}
	rb2, err := m.Match(b.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb1.Path) != len(rb2.Path) {
		t.Fatal("matching order changed the result")
	}
	for i := range rb1.Path {
		if rb1.Path[i] != rb2.Path[i] {
			t.Fatal("matching order changed the path")
		}
	}
}

// TestConfigDefaults pins withDefaults filling.
func TestConfigDefaults(t *testing.T) {
	var c Config
	c = c.withDefaults()
	if c.Dim == 0 || c.K == 0 || c.PoolSize == 0 || c.Epochs == 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
	if c.PoolSize < c.K {
		t.Error("pool smaller than candidate count")
	}
}

// TestFarPoint: one finite point 1,000 km outside the city — nothing the
// sanitizer rejects — must not empty the candidate pool. The spatial
// lookup used to stop at the grid's diagonal and return no segments
// there; selectTopK then indexed an empty pool, which failed a batch
// match as a recovered panic and panicked a streaming push through the
// caller.
func TestFarPoint(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	ct := append(traj.CellTrajectory(nil), d.TestTrips()[0].Cell...)
	far := len(ct) / 2
	ct[far].P.X += 1e6
	if got := m.Net.SegmentsNear(ct[far].P, m.Cfg.PoolSize); len(got) != m.Cfg.PoolSize {
		t.Fatalf("SegmentsNear far outside: %d segments, want %d", len(got), m.Cfg.PoolSize)
	}
	for _, policy := range []hmm.BreakPolicy{hmm.BreakError, hmm.BreakSkip, hmm.BreakSplit} {
		m.Cfg.OnBreak = policy
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%v: batch match: %v", policy, err)
		}
		if len(res.Matched) != len(ct) || res.Dead[far] {
			t.Errorf("%v: batch match left the far point without a road", policy)
		}
		sm := m.NewStream(2)
		for i, p := range ct {
			if _, err := sm.Push(p); err != nil {
				t.Fatalf("%v: push %d: %v", policy, i, err)
			}
		}
		sm.Flush()
		if len(sm.Matched()) != len(ct) || sm.Dead()[far] {
			t.Errorf("%v: stream left the far point without a road", policy)
		}
	}
}

// TestEmptyPoolIsADeadPoint: a point whose pool comes back empty has no
// candidates, and the matcher's break policy decides what that means —
// an ErrNoCandidates abort or a no-candidates gap, never an index into
// the empty pool.
func TestEmptyPoolIsADeadPoint(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	ct := d.TestTrips()[0].Cell
	m.Cfg.PoolSize, m.Cfg.CoPool = 0, 0 // past withDefaults: an empty pool for every point
	if got := m.newSession(ct).Candidates(ct, 0, m.Cfg.K); len(got) != 0 {
		t.Fatalf("Candidates over an empty pool = %d candidates", len(got))
	}
	for _, policy := range []hmm.BreakPolicy{hmm.BreakError, hmm.BreakSplit} {
		m.Cfg.OnBreak = policy
		if _, err := m.Match(ct); !errors.Is(err, hmm.ErrNoCandidates) {
			t.Errorf("%v: batch match err = %v, want ErrNoCandidates", policy, err)
		}
		sm := m.NewStream(1)
		_, err := sm.Push(ct[0])
		switch {
		case policy == hmm.BreakError && err == nil:
			t.Errorf("%v: push accepted a point without candidates", policy)
		case policy == hmm.BreakSplit && (err != nil || !sm.Dead()[0]):
			t.Errorf("%v: push err = %v, dead = %v; want a dead point", policy, err, sm.Dead())
		}
	}
}

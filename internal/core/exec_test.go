package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hmm"
	"repro/internal/sched"
	"repro/internal/traj"
)

// TestExecSchedulerMatchParity pins the serving guarantee end to end at
// the model layer: matching through a micro-batching scheduler in
// float64 mode produces results bit-identical to direct inline scoring,
// including under concurrent requests that actually coalesce.
func TestExecSchedulerMatchParity(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	trips := d.TestTrips()
	if len(trips) == 0 {
		t.Skip("no test trips")
	}

	// Reference: direct inline scoring.
	want := make([]*hmm.Result, len(trips))
	for i, tr := range trips {
		res, err := m.Match(tr.Cell)
		if err != nil {
			t.Fatalf("direct match trip %d: %v", tr.ID, err)
		}
		want[i] = res
	}

	s := sched.New(sched.Config{Window: 500 * time.Microsecond, MaxRows: 256, Workers: 4})
	defer s.Close()
	ms := *m // shallow copy, the serve overrideModel pattern
	ms.Exec = s

	// Concurrent matches through the shared scheduler so batches form.
	var wg sync.WaitGroup
	got := make([]*hmm.Result, len(trips))
	errs := make([]error, len(trips))
	for round := 0; round < 3; round++ {
		for i, tr := range trips {
			wg.Add(1)
			go func(i int, ct traj.CellTrajectory) {
				defer wg.Done()
				got[i], errs[i] = ms.Match(ct)
			}(i, tr.Cell)
		}
		wg.Wait()
		for i := range trips {
			if errs[i] != nil {
				t.Fatalf("scheduled match trip %d: %v", trips[i].ID, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d trip %d: scheduled result differs from direct", round, trips[i].ID)
			}
		}
	}
}

// TestExecSchedulerStreamParity: a stream over a scheduled model must
// emit exactly the direct stream's output (streaming sessions score
// inline, so an installed executor must not change them).
func TestExecSchedulerStreamParity(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]

	run := func(m *Model) ([]hmm.Candidate, []int) {
		sm := m.NewStream(2)
		var out []hmm.Candidate
		for _, p := range tr.Cell {
			cs, err := sm.Push(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cs...)
		}
		out = append(out, sm.Flush()...)
		var path []int
		for _, s := range sm.Path() {
			path = append(path, int(s))
		}
		return out, path
	}

	wantOut, wantPath := run(m)

	s := sched.New(sched.Config{Window: 300 * time.Microsecond, MaxRows: 128, Workers: 2})
	defer s.Close()
	ms := *m
	ms.Exec = s
	gotOut, gotPath := run(&ms)

	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatal("scheduled stream emissions differ from direct")
	}
	if !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatal("scheduled stream path differs from direct")
	}
}

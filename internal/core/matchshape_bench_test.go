//go:build unix

package core

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// BenchmarkMatchShape is one batch match at the repository benchmark's
// shape — dim 128, the default k — on an untrained model, over a
// 20-point trip (the fixture's trips laid end to end, one point every
// 30 s), on a router that holds every tree the match needs. ns/op is
// the match's wall-clock; cpu-ns/op is the process's user and system
// time per match (getrusage), which also counts the helper goroutine
// that prepares the candidate layers and routes each step while the
// forward pass runs, so the two part where the overlap pays.
func BenchmarkMatchShape(b *testing.B) { benchMatchShape(b, false) }

// BenchmarkMatchShapeCold is BenchmarkMatchShape on a fresh router per
// match, as the benchmark's batch_distinct meets every trip: the
// helper's TreeWalk calls build every tree the match routes over.
func BenchmarkMatchShapeCold(b *testing.B) { benchMatchShape(b, true) }

func benchMatchShape(b *testing.B, cold bool) {
	d := testDataset(b, 10)
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.RefreshEmbeddings()
	var ct traj.CellTrajectory
	for _, tr := range d.Trips {
		ct = append(ct, tr.Cell...)
	}
	ct = ct[:20]
	for i := range ct {
		ct[i].T = float64(i) * 30
	}
	if _, err := m.Match(ct); err != nil { // warms the router's trees
		b.Fatal(err)
	}
	cpu0 := cpuTime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			m.Router = roadnet.NewRouter(m.Net)
		}
		if _, err := m.Match(ct); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(b.N), "cpu-ns/op")
}

// cpuTime is the process's user plus system time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package nn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSetMatMulWorkersRace mutates the matmul worker count while other
// goroutines run parallel products. The setting is a single atomic, so
// every product must still be bit-identical to the sequential
// reference no matter which worker count it observed. Run under -race
// in CI.
func TestSetMatMulWorkersRace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Enough rows to clear matmulParallelMinFlops.
	rows := matmulParallelMinFlops/(96*64) + 8
	a := NewMat(rows, 96)
	a.Xavier(rng)
	b := NewMat(96, 64)
	b.Xavier(rng)
	want := NewMat(rows, 64)
	prev := SetMatMulWorkers(1)
	MatMulInto(want, a, b)
	SetMatMulWorkers(prev)
	defer SetMatMulWorkers(prev)

	var stop atomic.Bool
	mutatorDone := make(chan struct{})
	go func() { // the mutator
		defer close(mutatorDone)
		for i := 0; !stop.Load(); i++ {
			SetMatMulWorkers(1 + i%8)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := NewMat(rows, 64)
			for r := 0; r < 20; r++ {
				MatMulInto(out, a, b)
				for i := range want.W {
					if out.W[i] != want.W[i] {
						t.Error("MatMulInto diverged while workers mutated")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-mutatorDone
}

// TestWorkspacePoolConcurrentApplyWS pins that pooled workspaces are
// safe across concurrent ApplyWS callers: each goroutine checks out
// its own workspace, so outputs stay bit-identical to a sequential
// reference even with the pool churning. Run under -race in CI.
func TestWorkspacePoolConcurrentApplyWS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewMLP("m", []int{12, 16, 3}, ActReLU, rng)
	const callers = 8
	xs := make([]*Mat, callers)
	wants := make([]*Mat, callers)
	for i := range xs {
		xs[i] = NewMat(5+i, 12)
		xs[i].Xavier(rng)
		ws := GetWorkspace()
		wants[i] = m.ApplyWS(ws, xs[i]).Clone()
		PutWorkspace(ws)
	}

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				ws := GetWorkspace()
				got := m.ApplyWS(ws, xs[g])
				for i := range wants[g].W {
					if got.W[i] != wants[g].W[i] {
						t.Error("pooled workspace output diverged")
						PutWorkspace(ws)
						return
					}
				}
				PutWorkspace(ws)
			}
		}(g)
	}
	wg.Wait()
}

// TestWorkspacePoolReuseZeroAllocs pins that a Get/Apply/Put cycle
// reuses pooled slabs: after warmup the full checkout cycle runs
// without heap allocation.
func TestWorkspacePoolReuseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	rng := rand.New(rand.NewSource(23))
	m := NewMLP("m", []int{12, 16, 3}, ActReLU, rng)
	x := NewMat(8, 12)
	x.Xavier(rng)
	prev := SetMatMulWorkers(1)
	defer SetMatMulWorkers(prev)
	// Warm the pool slab.
	ws := GetWorkspace()
	m.ApplyWS(ws, x)
	PutWorkspace(ws)
	allocs := testing.AllocsPerRun(100, func() {
		ws := GetWorkspace()
		m.ApplyWS(ws, x)
		PutWorkspace(ws)
	})
	if allocs != 0 {
		t.Fatalf("pooled Get/Apply/Put cycle allocates: %v allocs/op", allocs)
	}
}

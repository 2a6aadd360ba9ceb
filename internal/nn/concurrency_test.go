package nn

import (
	"math"
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

// TestMLPF32CloseToF64 bounds the float32 fast path's error against
// the float64 reference and pins that the snapshot is frozen —
// mutating the source MLP afterwards must not change MLPF32 output.
func TestMLPF32CloseToF64(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, act := range []Activation{ActReLU, ActTanh, ActSigmoid} {
		m := NewMLP("m", []int{10, 14, 4}, act, rng)
		f := NewMLPF32(m)
		if f.OutDim() != 4 {
			t.Fatalf("OutDim = %d, want 4", f.OutDim())
		}
		x := NewMat(7, 10)
		x.Xavier(rng)
		ws := GetWorkspace()
		want := m.ApplyWS(ws, x).Clone()
		PutWorkspace(ws)
		got := NewMat(7, 4)
		f.ApplyInto(got, x)
		for i := range want.W {
			diff := math.Abs(got.W[i] - want.W[i])
			scale := math.Max(1, math.Abs(want.W[i]))
			if diff/scale > 1e-4 {
				t.Fatalf("act %v: f32 error %g at %d (%v vs %v)", act, diff, i, got.W[i], want.W[i])
			}
		}
		// Frozen snapshot: perturb source weights, output must not move.
		m.Layers[0].W.W.W[0] += 100
		got2 := NewMat(7, 4)
		f.ApplyInto(got2, x)
		for i := range got.W {
			if got.W[i] != got2.W[i] {
				t.Fatal("MLPF32 not frozen: tracked source weight mutation")
			}
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The workspace-backed inference paths must agree bit-for-bit with the
// allocating Apply paths (which the infer_test.go suite already pins to
// the tape forward pass), attention's with the tape forward pass itself,
// and must be allocation-free once warm.

func TestLinearApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear("l", 6, 4, rng)
	x := NewMat(7, 6)
	x.Xavier(rng)
	want := l.Apply(x)
	got := NewMat(7, 4)
	got.Fill(math.NaN()) // ApplyInto must fully overwrite
	l.ApplyInto(got, x)
	for i := range want.W {
		if want.W[i] != got.W[i] {
			t.Fatalf("ApplyInto mismatch at %d: %v vs %v", i, got.W[i], want.W[i])
		}
	}
}

// TestMLPApplyWSMatchesApply holds ApplyWS to the allocating Apply with
// bitwise equality on both paths, for every activation: 1–13 rows of
// inputs, with and without zeros of both signs, a NaN and ±Inf, through
// a 5→9→3 MLP, the fuse MLPs' 3→8→2 shape and a deeper 5→12→8→2 one
// (whose ReLU form folds its last ReLU into ApplyReLU2Rows) and a
// one-layer 4→2 one (no hidden ReLU to fold), with all weights finite and
// with a NaN, +Inf or −Inf in each layer's weights in turn. Each call
// takes from a Reset workspace, so the slab is reused. On an AVX2 host a
// ReLU head's finite weights and four rows or more must reach the
// read-out kernel.
func TestMLPApplyWSMatchesApply(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(12))
		ws := GetWorkspace()
		defer PutWorkspace(ws)
		for _, act := range []Activation{ActReLU, ActTanh, ActSigmoid} {
			for _, sizes := range [][]int{{5, 9, 3}, {3, 8, 2}, {5, 12, 8, 2}, {4, 2}} {
				for _, special := range []float64{0, hwNaN, math.Inf(1), math.Inf(-1)} {
					for layer := 0; layer < len(sizes)-1; layer++ {
						m := NewMLP("m", sizes, act, rng)
						for _, l := range m.Layers {
							for i := range l.B.W.W {
								l.B.W.W[i] = rng.NormFloat64()
							}
						}
						if special != 0 {
							w := m.Layers[layer].W.W.W
							w[rng.Intn(len(w))] = special
						}
						readOut := act == ActReLU && len(sizes) > 2 && sizes[len(sizes)-1] == 2 &&
							special == 0 && haveAVX2 && !portable
						for _, specialX := range []bool{false, true} {
							x := oracleMat(rng, 13, sizes[0], 0.2, specialX)
							for n := 1; n <= x.R; n++ {
								rows := x.Rows(0, n)
								want := m.Apply(rows)
								ws.Reset()
								before := reluKernelCalls.Load()
								got := m.ApplyWS(ws, rows)
								sameBits(t, fmt.Sprintf("act %v, sizes %v, W special %v in layer %d, %d rows",
									act, sizes, special, layer, n), got, want)
								if ran := reluKernelCalls.Load() > before; readOut && n >= 4 && !ran {
									t.Fatalf("sizes %v, %d rows: the two-class head did not reach the read-out kernel", sizes, n)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestSelfApplyAllMatchesPerRow: every row of the batched Eq. 6 pass
// equals the tape attention of that row and is bit-equal to the one-query
// read-out (ReadOutInto) a streaming push makes over the same keys.
func TestSelfApplyAllMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewAttention("a", 6, 4, rng)
	x := NewMat(9, 6)
	x.Xavier(rng)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	got := a.SelfApplyAllWS(ws, x)
	ak := a.PrecomputeKeys(x)
	one, w := make([]float64, x.C), make([]float64, x.R)
	for i := 0; i < x.R; i++ {
		q := &Mat{R: 1, C: x.C, W: x.Row(i)}
		want, _ := tapeAttention(a, q, x, x)
		var qdot [1]float64
		a.QueryScoresInto(qdot[:], nil, q)
		ak.ReadOutInto(one, w, qdot[0])
		for j := range want.W {
			if math.Abs(want.W[j]-got.At(i, j)) > 1e-12 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got.At(i, j), want.W[j])
			}
			if math.Float64bits(one[j]) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("row %d col %d: ReadOutInto %v vs batched %v", i, j, one[j], got.At(i, j))
			}
		}
	}
}

// TestAttKeysQueryMatchesForward: a one-row QueryAllWS and the weights
// of WeightsInto equal the tape forward pass.
func TestAttKeysQueryMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewAttention("a", 6, 4, rng)
	kv := NewMat(11, 6)
	kv.Xavier(rng)
	ak := a.PrecomputeKeys(kv)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for trial := 0; trial < 4; trial++ {
		q := NewMat(1, 6)
		q.Xavier(rng)
		wantOut, wantW := tapeAttention(a, q, kv, kv)
		ws.Reset()
		gotOut := ak.QueryAllWS(ws, q)
		var qdot [1]float64
		a.QueryScoresInto(qdot[:], ws, q)
		gotW := make([]float64, kv.R)
		ak.WeightsInto(gotW, qdot[0])
		for j := range wantOut.W {
			if math.Abs(wantOut.W[j]-gotOut.W[j]) > 1e-12 {
				t.Fatalf("trial %d: output mismatch at %d", trial, j)
			}
		}
		for j := range wantW {
			if math.Abs(wantW[j]-gotW[j]) > 1e-12 {
				t.Fatalf("trial %d: weight mismatch at %d", trial, j)
			}
		}
	}
}

// TestAttKeysGrowMatchesPrecompute: a cache grown a few rows at a time,
// over a matrix whose backing array moves as it is appended to, ends
// bit-equal to PrecomputeKeys over the final matrix — per-key scores and
// read-outs — and Grow with nothing new is a no-op.
func TestAttKeysGrowMatchesPrecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := NewAttention("a", 6, 4, rng)
	full := NewMat(11, 6)
	full.Xavier(rng)
	want := a.PrecomputeKeys(full)

	var w []float64 // append-grown, like a streaming session's embeddings
	var ak *AttKeys
	for _, upTo := range []int{1, 2, 5, 5, 11} {
		w = append(w, full.W[len(w):upTo*6]...)
		kv := &Mat{R: upTo, C: 6, W: w[: upTo*6 : upTo*6]}
		if ak == nil {
			ak = a.PrecomputeKeys(kv)
		} else {
			ak.Grow(kv)
		}
		if len(ak.kdot) != upTo || ak.kv != kv {
			t.Fatalf("grown to %d rows: cache covers %d, retargeted = %v", upTo, len(ak.kdot), ak.kv == kv)
		}
	}
	for i, kd := range want.kdot {
		if ak.kdot[i] != kd {
			t.Fatalf("key %d: grown score %v != precomputed %v", i, ak.kdot[i], kd)
		}
	}
	qs := NewMat(3, 6)
	qs.Xavier(rng)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	got := append([]float64(nil), ak.QueryAllWS(ws, qs).W...)
	ws.Reset()
	for j, v := range want.QueryAllWS(ws, qs).W {
		if got[j] != v {
			t.Fatalf("read-out value %d: grown %v != precomputed %v", j, got[j], v)
		}
	}
}

// TestAttKeysQueryAllMatchesQuery pins the multi-row read-out contract:
// row r of QueryAllWS is bit-identical to QueryAllWS over that row alone
// and to ReadOutInto, and is the weighted sum of the values under the
// helpers it is written over — QueryScoresInto (batched and nil-workspace
// forms agree bit-for-bit per row) and WeightsInto. core's Eq. 10 kernel
// is built on the same helpers and relies on rows being independent.
func TestAttKeysQueryAllMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := NewAttention("a", 6, 4, rng)
	kv := NewMat(11, 6)
	kv.Xavier(rng)
	ak := a.PrecomputeKeys(kv)
	qs := NewMat(7, 6)
	qs.Xavier(rng)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	ws.Reset()
	all := ak.QueryAllWS(ws, qs)
	got := append([]float64(nil), all.W...)
	qdots := make([]float64, qs.R)
	a.QueryScoresInto(qdots, nil, qs)
	w := make([]float64, kv.R)
	one := make([]float64, kv.C)
	for r := 0; r < qs.R; r++ {
		ws.Reset()
		q := &Mat{R: 1, C: qs.C, W: qs.Row(r)}
		want := ak.QueryAllWS(ws, q)
		var qdot [1]float64
		a.QueryScoresInto(qdot[:], ws, q)
		if qdot[0] != qdots[r] {
			t.Fatalf("row %d: one-row query score %v != batched %v", r, qdot[0], qdots[r])
		}
		ak.ReadOutInto(one, w, qdot[0])
		var sum float64
		for _, wi := range w {
			sum += wi
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d: weights sum to %v", r, sum)
		}
		for j, wv := range want.W {
			if g := got[r*all.C+j]; g != wv {
				t.Fatalf("row %d col %d: batched %v != one-row %v", r, j, g, wv)
			}
			var ref float64
			for i, wi := range w {
				ref += wi * kv.At(i, j)
			}
			if wv != ref || one[j] != ref {
				t.Fatalf("row %d col %d: read-out %v (ReadOutInto %v) != Σ w_i·v_i %v", r, j, wv, one[j], ref)
			}
		}
	}
}

// TestBatchedInferenceZeroAllocs pins the batched-path contract: after
// warmup, MLP.ApplyWS and a streaming push's attention read — the query
// half through the workspace, then ReadOutInto over the cached keys — run
// without a single heap allocation.
func TestBatchedInferenceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMLP("m", []int{48, 24, 2}, ActReLU, rng)
	att := NewAttention("a", 24, 12, rng)
	x := NewMat(64, 48)
	x.Xavier(rng)
	q := NewMat(1, 24)
	q.Xavier(rng)
	kv := NewMat(32, 24)
	kv.Xavier(rng)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	// Cap the matmul pool at 1: goroutine forking inside a parallel
	// MatMulInto allocates by design; the 0-alloc contract is about the
	// per-call buffer discipline.
	prev := SetMatMulWorkers(1)
	defer SetMatMulWorkers(prev)
	ak := att.PrecomputeKeys(kv)
	push := func() {
		ws.Reset()
		m.ApplyWS(ws, x)
		qdot := ws.TakeVec(1)
		att.QueryScoresInto(qdot, ws, q)
		ak.ReadOutInto(ws.TakeVec(kv.C), ws.TakeVec(kv.R), qdot[0])
	}
	push() // warm the slabs
	allocs := testing.AllocsPerRun(100, push)
	if allocs != 0 {
		t.Fatalf("batched inference allocates: %v allocs/op", allocs)
	}
}

// TestMatMulParallelMatchesSequential pins that row-parallel products
// are bit-identical to sequential ones, under the race detector, at
// GOMAXPROCS 1 and N.
func TestMatMulParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
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

	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{2, 3, 8} {
			SetMatMulWorkers(workers)
			got := NewMat(rows, 64)
			MatMulInto(got, a, b)
			for i := range want.W {
				if want.W[i] != got.W[i] {
					t.Fatalf("GOMAXPROCS %d workers %d: mismatch at %d", procs, workers, i)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
	SetMatMulWorkers(prev)

	// Concurrent callers must not trample each other (workspaces are
	// per-goroutine; MatMulInto itself shares only read-only inputs).
	SetMatMulWorkers(4)
	defer SetMatMulWorkers(prev)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := NewMat(rows, 64)
			MatMulInto(out, a, b)
			for i := range want.W {
				if want.W[i] != out.W[i] {
					t.Error("concurrent MatMulInto diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkApplyWSTwoClass times one Viterbi step's Eq. 12 fuse at
// k = 30: 900 rows through a 3→8→2 ReLU head, on the portable path and
// the AVX2 kernels.
func BenchmarkApplyWSTwoClass(b *testing.B) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, kernel := range []string{"portable", "avx2"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			if kernel == "avx2" && !haveAVX2 {
				b.Skip("no AVX2")
			}
			SetMatMulPortable(kernel == "portable")
			rng := rand.New(rand.NewSource(47))
			m := NewMLP("head", []int{3, 8, 2}, ActReLU, rng)
			x := oracleMat(rng, 900, 3, 0, false)
			ws := &Workspace{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				m.ApplyWS(ws, x)
			}
		})
	}
}

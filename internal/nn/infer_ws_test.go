package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The workspace-backed inference paths must agree bit-for-bit with the
// allocating Apply paths (which the infer_test.go suite already pins to
// the tape forward pass), and must be allocation-free once warm.

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

func TestMLPApplyWSMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for _, act := range []Activation{ActReLU, ActTanh, ActSigmoid} {
		m := NewMLP("m", []int{5, 9, 3}, act, rng)
		for trial := 0; trial < 3; trial++ { // repeat to exercise slab reuse
			x := NewMat(4+trial, 5)
			x.Xavier(rng)
			want := m.Apply(x)
			ws.Reset()
			got := m.ApplyWS(ws, x)
			for i := range want.W {
				if want.W[i] != got.W[i] {
					t.Fatalf("act %v trial %d: ApplyWS mismatch at %d", act, trial, i)
				}
			}
		}
	}
}

func TestAttentionApplyWSMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewAttention("a", 5, 3, rng)
	q := NewMat(1, 5)
	q.Xavier(rng)
	k := NewMat(8, 5)
	k.Xavier(rng)
	v := NewMat(8, 5)
	v.Xavier(rng)
	wantOut, wantW := a.Apply(q, k, v)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	for trial := 0; trial < 3; trial++ {
		ws.Reset()
		gotOut, gotW := a.ApplyWS(ws, q, k, v)
		for i := range wantOut.W {
			if wantOut.W[i] != gotOut.W[i] {
				t.Fatalf("trial %d: output mismatch at %d", trial, i)
			}
		}
		for i := range wantW {
			if wantW[i] != gotW[i] {
				t.Fatalf("trial %d: weight mismatch at %d", trial, i)
			}
		}
	}
}

func TestSelfApplyAllMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewAttention("a", 6, 4, rng)
	x := NewMat(9, 6)
	x.Xavier(rng)
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	got := a.SelfApplyAllWS(ws, x)
	for i := 0; i < x.R; i++ {
		q := &Mat{R: 1, C: x.C, W: x.Row(i)}
		want, _ := a.Apply(q, x, x)
		for j := range want.W {
			if math.Abs(want.W[j]-got.At(i, j)) > 1e-12 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got.At(i, j), want.W[j])
			}
		}
	}
}

func TestAttKeysQueryMatchesApply(t *testing.T) {
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
		wantOut, wantW := a.Apply(q, kv, kv)
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
// and is the weighted sum of the values under the two helpers it is
// written over — QueryScoresInto (batched and nil-workspace forms agree
// bit-for-bit per row) and WeightsInto. core's Eq. 10 kernel is built on
// the same two helpers and relies on rows being independent.
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
	for r := 0; r < qs.R; r++ {
		ws.Reset()
		q := &Mat{R: 1, C: qs.C, W: qs.Row(r)}
		want := ak.QueryAllWS(ws, q)
		var qdot [1]float64
		a.QueryScoresInto(qdot[:], ws, q)
		if qdot[0] != qdots[r] {
			t.Fatalf("row %d: one-row query score %v != batched %v", r, qdot[0], qdots[r])
		}
		ak.WeightsInto(w, qdot[0])
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
			if wv != ref {
				t.Fatalf("row %d col %d: read-out %v != Σ w_i·v_i %v", r, j, wv, ref)
			}
		}
	}
}

// TestBatchedInferenceZeroAllocs pins the batched-path contract: after
// warmup, MLP.ApplyWS and Attention.ApplyWS run without a single heap
// allocation.
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
	ws.Reset()
	m.ApplyWS(ws, x) // warm the slabs
	att.ApplyWS(ws, q, kv, kv)
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.ApplyWS(ws, x)
		att.ApplyWS(ws, q, kv, kv)
	})
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

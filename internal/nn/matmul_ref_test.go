package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMulRows is the one-row product loop matMulRows replaced, kept
// verbatim as the oracle its blocked form must match bit for bit.
func refMatMulRows(dst, a, b *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.W[i*a.C : (i+1)*a.C]
		dr := dst.W[i*dst.C : (i+1)*dst.C]
		for j := range dr {
			dr[j] = 0
		}
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.W[k*b.C : (k+1)*b.C]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// refMatMulBackward is the MatMul backward closure matMulBackward
// replaced — two full products through transposes — kept verbatim as
// the oracle, with out.Grad passed as dOut.
func refMatMulBackward(a, b *T, dOut *Mat) {
	// dA += dOut · Bᵀ
	bt := NewMat(b.C(), b.R())
	TransposeInto(bt, b.Val)
	da := NewMat(a.R(), a.C())
	MatMulInto(da, dOut, bt)
	a.Grad.AddInPlace(da)
	// dB += Aᵀ · dOut
	at := NewMat(a.C(), a.R())
	TransposeInto(at, a.Val)
	db := NewMat(b.R(), b.C())
	MatMulInto(db, at, dOut)
	b.Grad.AddInPlace(db)
}

// hwNaN is the NaN the hardware makes for Inf−Inf or 0·Inf. When both
// operands of a sum are NaN, which one's bits come out depends on the
// operand order the compiler picked (and -race picks differently), so
// the oracles inject only this NaN: every NaN a product then holds has
// the same bits, and bitwise equality stays well defined.
var hwNaN = func() float64 { inf := math.Inf(1); return inf - inf }()

// oracleMat fills an r×c matrix from rng with the values that decide
// exactness: a share of exact zeros of both signs, and — when special
// — a NaN and ±Inf.
func oracleMat(rng *rand.Rand, r, c int, zeros float64, special bool) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		switch u := rng.Float64(); {
		case u < zeros/2:
			m.W[i] = 0
		case u < zeros:
			m.W[i] = math.Copysign(0, -1)
		default:
			m.W[i] = rng.NormFloat64()
		}
	}
	if special {
		for _, v := range []float64{hwNaN, math.Inf(1), math.Inf(-1)} {
			m.W[rng.Intn(len(m.W))] = v
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	for i := range want.W {
		if math.Float64bits(got.W[i]) != math.Float64bits(want.W[i]) {
			t.Fatalf("%s: element %d (row %d) is %v (%#x), oracle %v (%#x)", what, i, i/want.C,
				got.W[i], math.Float64bits(got.W[i]), want.W[i], math.Float64bits(want.W[i]))
		}
	}
}

// oracleShapes are product shapes r×k·k×c: rows 1–7 and odd counts
// reach both kernels' row tails, c of 8, 16, 24, 40 and 128 the AVX2
// kernel's whole tiles and other c its fallback, and the last two are
// large enough to fork.
var oracleShapes = [][3]int{
	{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 3}, {7, 16, 9}, {9, 3, 17},
	{13, 32, 8}, {33, 17, 31}, {64, 64, 64},
	{1, 8, 8}, {2, 3, 16}, {3, 11, 24}, {4, 1, 8}, {5, 16, 16}, {6, 7, 128},
	{7, 33, 24}, {9, 128, 128}, {12, 10, 12}, {8, 13, 40},
	{matmulParallelMinFlops/(96*64) + 7, 96, 64},
	{matmulParallelMinFlops/(128*128) + 5, 128, 128},
}

// kernels runs f with the portable product path, then with the AVX2
// kernel allowed wherever useKernel admits it.
func kernels(t *testing.T, f func(t *testing.T, portable bool)) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, portable := range []bool{true, false} {
		SetMatMulPortable(portable)
		t.Run(map[bool]string{true: "portable", false: "avx2"}[portable], func(t *testing.T) {
			if !portable && !haveAVX2 {
				t.Log("no AVX2: every product runs the portable path")
			}
			f(t, portable)
		})
	}
}

// TestMatMulRowsMatchesRef holds both product paths — the AVX2 kernel
// and the register-blocked matMulRows — to the one-row loop with
// bitwise equality: zeros and −0 in both operands, NaN and ±Inf in
// either, sequential and row-parallel. On an AVX2 host the kernel must
// run exactly for the products its gate admits: four rows or more, a
// multiple of 8 columns, and no NaN or ±Inf in b.
func TestMatMulRowsMatchesRef(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(31))
		defer SetMatMulWorkers(SetMatMulWorkers(0))
		for _, workers := range []int{1, 4} {
			SetMatMulWorkers(workers)
			for _, sh := range oracleShapes {
				for _, tc := range []struct {
					zeros        float64
					specA, specB bool
				}{{0, false, false}, {0.4, false, false}, {0.4, true, false}, {0.4, false, true}, {0.9, true, true}} {
					a := oracleMat(rng, sh[0], sh[1], tc.zeros, tc.specA)
					b := oracleMat(rng, sh[1], sh[2], tc.zeros, tc.specB)
					got, want := NewMat(sh[0], sh[2]), NewMat(sh[0], sh[2])
					got.Fill(7) // the kernel must overwrite, not accumulate
					before := kernelProducts.Load()
					MatMulInto(got, a, b)
					refMatMulRows(want, a, b, 0, a.R)
					what := fmt.Sprintf("workers %d, %v, %+v", workers, sh, tc)
					sameBits(t, what, got, want)
					runs := int64(0)
					if haveAVX2 && !portable && sh[0] >= 4 && sh[2]%8 == 0 && !tc.specB {
						runs = 1
					}
					if ran := kernelProducts.Load() - before; ran != runs {
						t.Fatalf("%s: the AVX2 kernel ran %d times, want %d", what, ran, runs)
					}
				}
			}
		}
	})
}

// refMatMulAddRows is the Eq. 10 accumulation MatMulAddInto replaced,
// kept verbatim as its oracle: per row, hid[j] += w_i·v over the keys i
// ascending, with no skip.
func refMatMulAddRows(dst, a, b *Mat) {
	d := b.C
	for r := 0; r < a.R; r++ {
		hid := dst.Row(r)
		for i, wi := range a.Row(r) {
			for j, v := range b.W[i*d : (i+1)*d] {
				hid[j] += wi * v
			}
		}
	}
}

// TestMatMulAddIntoMatchesAxpy holds both MatMulAddInto paths to the
// accumulation loop with bitwise equality: a dst that starts with −0,
// NaN and ±Inf, zero and NaN multipliers, NaN and ±Inf in b, rows 1–9,
// and b.C of 8, 12 and 128. Nothing is skipped on either path, so on an
// AVX2 host the kernel must run for every product of four rows or more
// with a multiple of 8 columns, specials included.
func TestMatMulAddIntoMatchesAxpy(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(38))
		for _, c := range []int{8, 12, 128} {
			for rows := 1; rows <= 9; rows++ {
				for _, kn := range []int{1, 7, 40} {
					for _, special := range []bool{false, true} {
						a := oracleMat(rng, rows, kn, 0.3, special)
						b := oracleMat(rng, kn, c, 0.3, special)
						got := oracleMat(rng, rows, c, 0.3, special)
						want := got.Clone()
						before := kernelProducts.Load()
						MatMulAddInto(got, a, b)
						refMatMulAddRows(want, a, b)
						what := fmt.Sprintf("%d×%d · %d×%d, specials %v", rows, kn, kn, c, special)
						sameBits(t, what, got, want)
						runs := int64(0)
						if haveAVX2 && !portable && rows >= 4 && c%8 == 0 {
							runs = 1
						}
						if ran := kernelProducts.Load() - before; ran != runs {
							t.Fatalf("%s: the AVX2 kernel ran %d times, want %d", what, ran, runs)
						}
					}
				}
			}
		}
	})
}

// oracleGrad builds a gradient for an r×c product output: kind picks
// all-zero, one non-zero row, about 5% of rows, or dense; zero rows are
// +0 or −0 at random.
func oracleGrad(rng *rand.Rand, r, c int, kind string) *Mat {
	g := NewMat(r, c)
	live := func(int) bool { return true }
	switch kind {
	case "zero":
		live = func(int) bool { return false }
	case "one-row":
		row := rng.Intn(r)
		live = func(i int) bool { return i == row }
	case "sparse":
		live = func(int) bool { return rng.Float64() < 0.05 }
	}
	for i := 0; i < r; i++ {
		row := g.Row(i)
		if !live(i) {
			if rng.Intn(2) == 0 {
				for j := range row {
					row[j] = math.Copysign(0, -1)
				}
			}
			continue
		}
		for j := range row {
			if rng.Float64() < 0.2 {
				row[j] = 0
			} else {
				row[j] = rng.NormFloat64()
			}
		}
	}
	return g
}

// TestMatMulBackwardMatchesRef holds the row-restricted backward to the
// two full products bit for bit, on a.Grad and b.Grad, for all-zero,
// single-row, 5% and dense gradients, with zeros, −0, NaN and ±Inf in
// the operands, accumulating onto zero and non-zero gradients, with the
// row-parallel fork off and on.
func TestMatMulBackwardMatchesRef(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(32))
		defer SetMatMulWorkers(SetMatMulWorkers(0))
		for _, workers := range []int{1, 4} {
			SetMatMulWorkers(workers)
			for _, sh := range oracleShapes {
				for _, kind := range []string{"zero", "one-row", "sparse", "dense"} {
					for _, spec := range [][2]bool{{false, false}, {true, false}, {false, true}} {
						for _, warm := range []bool{false, true} {
							aVal := oracleMat(rng, sh[0], sh[1], 0.3, spec[0])
							bVal := oracleMat(rng, sh[1], sh[2], 0.3, spec[1])
							dOut := oracleGrad(rng, sh[0], sh[2], kind)
							node := func(val *Mat, grad *Mat) *T { return &T{Val: val, Grad: grad.Clone()} }
							ga, gb := NewMat(sh[0], sh[1]), NewMat(sh[1], sh[2])
							if warm { // gradients other consumers already added to
								ga, gb = oracleMat(rng, sh[0], sh[1], 0, false), oracleMat(rng, sh[1], sh[2], 0, false)
							}
							a, b := node(aVal, ga), node(bVal, gb)
							ra, rb := node(aVal, ga), node(bVal, gb)
							before := kernelProducts.Load()
							NewTape().matMulBackward(a, b, dOut)
							ran := kernelProducts.Load() - before
							refMatMulBackward(ra, rb, dOut)
							what := fmt.Sprintf("workers %d, %v, %s grad, specials %v, warm %v", workers, sh, kind, spec, warm)
							sameBits(t, what+": a.Grad", a.Grad, ra.Grad)
							sameBits(t, what+": b.Grad", b.Grad, rb.Grad)
							// A dense gradient keeps rows, so Aᵀ·dOut is a
							// sh[1]-row product with a finite right operand.
							if haveAVX2 && !portable && kind == "dense" && sh[1] >= 4 && sh[2]%8 == 0 && ran == 0 {
								t.Fatalf("%s: Aᵀ·dOut did not run the AVX2 kernel", what)
							}
						}
					}
				}
			}
		}
	})
}

// TestForwardTapeAllocatesNoGrad: a forward-only tape over one round of
// the graph encoder (Eq. 4–5) allocates no gradient buffer. Backward
// allocates one for every node but the Var nodes one op reads alone as
// its MatMul weight, whose gradient goes to the parameter directly, and
// every parameter holds its gradient.
func TestForwardTapeAllocatesNoGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const nodes, dim = 12, 6
	adj, err := NewSparse(nodes, nodes, []Triple{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {5, 7, 1}, {11, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	init := NewParam("init", nodes, dim, rng)
	wRel, w0, wAgg := NewParam("rel", dim, dim, rng), NewParam("w0", dim, dim, rng), NewParam("agg", dim, dim, rng)
	tp := NewTape()
	h := tp.Var(init)
	z := tp.SpMM(adj, tp.MatMul(h, tp.Var(wRel)))
	h = tp.ReLU(tp.Add(tp.MatMul(z, tp.Var(wAgg)), tp.MatMul(h, tp.Var(w0))))
	for i, n := range tp.nodes {
		if n.Grad != nil {
			t.Fatalf("forward-only tape: node %d holds a %d×%d gradient", i, n.Grad.R, n.Grad.C)
		}
	}
	if err := tp.Backward(tp.SumAll(h)); err != nil {
		t.Fatal(err)
	}
	for i, n := range tp.nodes {
		weight := n.param != nil && n.param != init
		switch {
		case weight && (n.Grad != nil || n.sink == nil):
			t.Fatalf("after Backward: weight node %d holds gradient %+v, sink %+v; want none and a sink", i, n.Grad, n.sink)
		case !weight && (n.Grad == nil || n.Grad.R != n.Val.R || n.Grad.C != n.Val.C):
			t.Fatalf("after Backward: node %d gradient %+v", i, n.Grad)
		}
	}
	for _, p := range []*Param{init, wRel, w0, wAgg} {
		if p.Grad == nil {
			t.Fatalf("after Backward: parameter %s holds no gradient", p.Name)
		}
	}
}

// refBackward is the Backward the sinks replaced, kept as the oracle:
// every node gets a zeroed gradient buffer up front, every reader adds
// its contribution to it (no node counts as read alone), and each Var
// node's buffer is then added to its parameter's gradient in forward
// order — p.Grad += (0 + c) for a Var read once.
func refBackward(tp *Tape, loss *T) {
	for _, n := range tp.nodes {
		n.Grad = NewMat(n.Val.R, n.Val.C)
		n.uses++
	}
	loss.Grad.W[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if n := tp.nodes[i]; n.back != nil {
			n.back()
		}
	}
	for _, n := range tp.nodes {
		if n.param != nil {
			n.param.grad().AddInPlace(n.Grad)
		}
	}
}

// TestBackwardSinksMatchPerUseRef holds Backward, whose Var nodes read
// alone by a MatMul weight or a Gather hand their contribution to the
// parameter directly, to refBackward with Float64bits equality on every
// parameter gradient: a weight read once, by two Var nodes, and twice
// through one Var node; a Var as a MatMul left operand; a bias through
// AddRow; lookups with ascending, unsorted and repeated rows; gradients
// with zero rows; operands with zeros of both signs (−0 products) and
// rows holding NaN or ±Inf; parameter gradients starting nil or warm.
func TestBackwardSinksMatchPerUseRef(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(36))
		for trial := 0; trial < 40; trial++ {
			special, warm := trial%4 >= 2, trial%2 == 1
			n, d, h := 3+rng.Intn(10), 1+rng.Intn(12), 8*(1+rng.Intn(2))
			w := map[string]*Mat{
				"once":  oracleMat(rng, d, h, 0.2, special),
				"twice": oracleMat(rng, h, h, 0.2, special),
				"left":  oracleMat(rng, n, d, 0.2, special),
				"bias":  oracleMat(rng, 1, h, 0.2, false),
				"table": oracleMat(rng, 3*n, d, 0.2, special),
			}
			x := oracleMat(rng, n, d, 0.3, special)
			right := oracleMat(rng, d, h, 0.3, false)
			mask := oracleMat(rng, n, h, 0.3, false)
			asc := []int{0, 2, 3, 3*n - 1}
			mixed := make([]int, 48) // past insertion sort's 12: an unstable sort reorders
			for i := range mixed {
				mixed[i] = rng.Intn(3 * n)
			}
			pick := []int{0, n - 1}
			scale := oracleMat(rng, len(asc)+len(mixed), h, 0.3, false)
			// A warm gradient is what earlier passes summed: never −0.
			params := func(seed int64) map[string]*Param {
				r := rand.New(rand.NewSource(seed))
				ps := make(map[string]*Param, len(w))
				for _, name := range []string{"bias", "left", "once", "table", "twice"} {
					ps[name] = &Param{Name: name, W: w[name]}
					if warm {
						ps[name].Grad = oracleMat(r, w[name].R, w[name].C, 0, false)
					}
				}
				return ps
			}
			build := func(tp *Tape, ps map[string]*Param) *T {
				// once: one Var node, one reader.
				h1 := tp.MatMul(tp.Const(x), tp.Var(ps["once"]))
				// twice: two single-reader Var nodes, then one node read twice.
				h2 := tp.MatMul(tp.ReLU(h1), tp.Var(ps["twice"]))
				t2 := tp.Tanh(h2)
				h3 := tp.MatMul(t2, tp.Var(ps["twice"]))
				v := tp.Var(ps["twice"])
				h4 := tp.Add(tp.MatMul(h3, v), tp.MatMul(h1, v))
				// left: a Var as a MatMul's left operand; bias through AddRow.
				h5 := tp.MatMul(tp.Var(ps["left"]), tp.Const(right))
				out := tp.AddRow(tp.Add(h4, h5), tp.Var(ps["bias"]))
				out = tp.Mul(out, tp.Const(mask))
				// table: an ascending lookup and a repeated, unsorted one.
				g1 := tp.Gather(tp.Var(ps["table"]), asc)
				g2 := tp.Gather(tp.Var(ps["table"]), mixed)
				look := tp.MatMul(tp.StackRows([]*T{g1, g2}), tp.Const(right))
				// Two rows of out reach the loss (zero rows of dOut); t2 is
				// read again after its product, whose dOut is dense.
				sparse := tp.SumAll(tp.Gather(out, pick))
				dense := tp.SumAll(tp.Mul(tp.Add(h3, t2), tp.Const(mask)))
				return tp.Add(tp.Add(sparse, dense), tp.SumAll(tp.Mul(look, tp.Const(scale))))
			}
			seed := rng.Int63()
			got, want := params(seed), params(seed)
			tp := NewTape()
			if err := tp.Backward(build(tp, got)); err != nil {
				t.Fatal(err)
			}
			// once, the two single-reader nodes of twice, and both lookups.
			var sinks int
			for _, n := range tp.nodes {
				if n.sink != nil {
					sinks++
				}
			}
			if sinks != 5 {
				t.Fatalf("trial %d: %d Var nodes sank their gradient, want 5", trial, sinks)
			}
			rt := NewTape()
			refBackward(rt, build(rt, want))
			for name, p := range want {
				sameBits(t, fmt.Sprintf("trial %d (%d×%d, h %d, specials %v, warm %v): %s", trial, n, d, h, special, warm, name), got[name].Grad, p.Grad)
			}
		}
	})
}

// TestBackwardVarLossKeepsSeed: a Var node that is the loss keeps its
// seed when one op also reads it: the seed counts as a reader, so no
// sink stands in for the gradient buffer the seed is in.
func TestBackwardVarLossKeepsSeed(t *testing.T) {
	p := &Param{Name: "loss", W: RowVec(3)}
	tp := NewTape()
	loss := tp.Var(p)
	tp.Gather(loss, []int{0}) // read, but reaches nothing
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if p.Grad == nil || p.Grad.W[0] != 1 {
		t.Fatalf("gradient of a Var loss: %+v, want 1", p.Grad)
	}
}

// BenchmarkEncoderProduct times one product of the graph encoder's
// shape at the benchmark's scale and dimension (8,364 nodes × 128 ·
// 128×128), dense and with 40% zero multipliers (the ReLU'd layers), on
// the portable path and the AVX2 kernel.
func BenchmarkEncoderProduct(b *testing.B) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, kernel := range []string{"portable", "avx2"} {
		for _, zeros := range []float64{0, 0.4} {
			b.Run(fmt.Sprintf("kernel=%s/zeros=%.0f%%", kernel, 100*zeros), func(b *testing.B) {
				if kernel == "avx2" && !haveAVX2 {
					b.Skip("no AVX2")
				}
				SetMatMulPortable(kernel == "portable")
				rng := rand.New(rand.NewSource(34))
				a, w := oracleMat(rng, 8364, 128, zeros, false), oracleMat(rng, 128, 128, 0, false)
				dst := NewMat(a.R, w.C)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, a, w)
				}
			})
		}
	}
}

// BenchmarkMatMulAddInto times the Eq. 10 accumulation of one block of
// four segments over a 50-point trajectory at dimension 128 (4×50 ·
// 50×128 added to the segments' table rows), on the portable path and
// the AVX2 kernel.
func BenchmarkMatMulAddInto(b *testing.B) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, kernel := range []string{"portable", "avx2"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			if kernel == "avx2" && !haveAVX2 {
				b.Skip("no AVX2")
			}
			SetMatMulPortable(kernel == "portable")
			rng := rand.New(rand.NewSource(39))
			w, val := oracleMat(rng, 4, 50, 0, false), oracleMat(rng, 50, 128, 0, false)
			seg := oracleMat(rng, 4, 128, 0, false)
			hid := NewMat(4, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(hid.W, seg.W)
				MatMulAddInto(hid, w, val)
			}
		})
	}
}

// BenchmarkMatMulBackward times the backward of that product for a
// gradient with about 5% non-zero rows, as the encoder's receptive field
// leaves it.
func BenchmarkMatMulBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	aVal, bVal := oracleMat(rng, 8364, 128, 0.4, false), oracleMat(rng, 128, 128, 0, false)
	dOut := oracleGrad(rng, 8364, 128, "sparse")
	a := &T{Val: aVal, Grad: NewMat(aVal.R, aVal.C)}
	w := &T{Val: bVal, Grad: NewMat(bVal.R, bVal.C)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTape().matMulBackward(a, w, dOut)
	}
}

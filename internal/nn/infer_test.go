package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The inference forms of the layers must agree with the tape forward
// pass.

func TestLinearApplyMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 4, 3, rng)
	x := NewMat(5, 4)
	x.Xavier(rng)
	tp := NewTape()
	want := l.Forward(tp, tp.Const(x)).Val
	got := l.Apply(x)
	for i := range want.W {
		if math.Abs(want.W[i]-got.W[i]) > 1e-12 {
			t.Fatalf("Apply mismatch at %d: %v vs %v", i, got.W[i], want.W[i])
		}
	}
}

func TestMLPApplyMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, act := range []Activation{ActReLU, ActTanh, ActSigmoid} {
		m := NewMLP("m", []int{3, 6, 2}, act, rng)
		x := NewMat(4, 3)
		x.Xavier(rng)
		tp := NewTape()
		want := m.Forward(tp, tp.Const(x)).Val
		got := m.Apply(x)
		for i := range want.W {
			if math.Abs(want.W[i]-got.W[i]) > 1e-12 {
				t.Fatalf("act %v: Apply mismatch at %d", act, i)
			}
		}
	}
}

// tapeAttention is the reference read-out: Attention.Forward on a fresh
// tape. It returns the 1×d output and the attention weights.
func tapeAttention(a *Attention, q, k, v *Mat) (*Mat, []float64) {
	tp := NewTape()
	out, w := a.Forward(tp, tp.Const(q), tp.Const(k), tp.Const(v))
	return out.Val, w.Val.W
}

// TestAttKeysReadOutMatchesForward: the inference form — the query half
// (QueryScoresInto), the weights (WeightsInto) and the read-out
// (ReadOutInto) over the cached keys — equals the tape forward pass.
func TestAttKeysReadOutMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAttention("a", 4, 3, rng)
	q := NewMat(1, 4)
	q.Xavier(rng)
	kv := NewMat(6, 4)
	kv.Xavier(rng)
	wantOut, wantW := tapeAttention(a, q, kv, kv)
	ak := a.PrecomputeKeys(kv)
	var qdot [1]float64
	a.QueryScoresInto(qdot[:], nil, q)
	gotW := make([]float64, kv.R)
	ak.WeightsInto(gotW, qdot[0])
	gotOut := make([]float64, kv.C)
	w := make([]float64, kv.R)
	ak.ReadOutInto(gotOut, w, qdot[0])
	for i := range wantOut.W {
		if math.Abs(wantOut.W[i]-gotOut[i]) > 1e-12 {
			t.Fatalf("output mismatch at %d: %v vs %v", i, gotOut[i], wantOut.W[i])
		}
	}
	for i := range gotW {
		if math.Abs(wantW[i]-gotW[i]) > 1e-12 || w[i] != gotW[i] {
			t.Fatalf("weight mismatch at %d: %v (read-out's %v) vs %v", i, gotW[i], w[i], wantW[i])
		}
	}
}

// hiddenRows fills an r×d matrix of pre-activation hidden rows with the
// values that decide the read-out's exactness: exact zeros and negative
// zeros (units matMulRows skips), and as rows 0–3 a row with no positive
// unit (the sums stay at +0 and the bias comes out alone), an all-zero
// row, a row with a NaN unit and a −0 unit, which the ReLU maps to +0 as
// the tape's does, and a row with +Inf and −Inf.
func hiddenRows(rng *rand.Rand, r, d int) *Mat {
	negZero := math.Copysign(0, -1)
	rows := NewMat(r, d)
	for i := 0; i < rows.R; i++ {
		row := rows.Row(i)
		for k := range row {
			row[k] = rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				row[k] = 0
			case 1:
				row[k] = negZero
			}
		}
		switch i {
		case 0: // no positive unit
			for k := range row {
				row[k] = -math.Abs(row[k])
			}
		case 1:
			clear(row)
		case 2:
			row[d/2], row[(d/2+1)%d] = math.NaN(), negZero
		case 3:
			row[0], row[d-1] = math.Inf(1), math.Inf(-1)
		}
	}
	return rows
}

// TestApplyReLU2BitEqual: the fused two-logit read-out is the tape's
// ReLU followed by Linear.ApplyInto, bit for bit, on hiddenRows' rows,
// and the inference ReLU (applyActInPlace) is the tape's.
func TestApplyReLU2BitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const d = 37
	l := NewLinear("out", d, 2, rng)
	l.B.W.W[0], l.B.W.W[1] = 0.25, -1.5
	rows := hiddenRows(rng, 64, d)
	tp := NewTape()
	hid := tp.ReLU(tp.Const(rows)).Val
	inf := rows.Clone()
	applyActInPlace(ActReLU, inf)
	for i, v := range hid.W {
		if math.Float64bits(inf.W[i]) != math.Float64bits(v) {
			t.Fatalf("unit %d (%v): applyActInPlace %v, tape ReLU %v", i, rows.W[i], inf.W[i], v)
		}
	}
	want := NewMat(rows.R, 2)
	l.ApplyInto(want, hid)
	for i := 0; i < rows.R; i++ {
		g0, g1 := l.ApplyReLU2(rows.Row(i))
		w := want.Row(i)
		if math.Float64bits(g0) != math.Float64bits(w[0]) || math.Float64bits(g1) != math.Float64bits(w[1]) {
			t.Fatalf("row %d: fused (%v, %v), ReLU then ApplyInto (%v, %v)", i, g0, g1, w[0], w[1])
		}
	}
	if g0, g1 := l.ApplyReLU2(rows.Row(2)); math.IsNaN(g0) || math.IsNaN(g1) {
		t.Fatalf("a NaN unit reached the logits: (%v, %v)", g0, g1)
	}
}

// TestApplyReLU2RowsBitEqual holds the many-row read-out to ApplyReLU2
// row by row with bitwise equality, on both paths: 1–9 rows (whole
// blocks of four and tails) taken from hiddenRows' special rows and from
// ordinary ones, widths 4, 36, 37 and 128, and weights that are finite
// or hold a NaN, +Inf or −Inf. On an AVX2 host the kernel must run
// exactly where its gate admits it: four rows or more, a width that is
// a multiple of 4, finite weights.
func TestApplyReLU2RowsBitEqual(t *testing.T) {
	kernels(t, func(t *testing.T, portable bool) {
		rng := rand.New(rand.NewSource(36))
		for _, d := range []int{4, 36, 37, 128} {
			for _, special := range []float64{0, hwNaN, math.Inf(1), math.Inf(-1)} {
				l := NewLinear("out", d, 2, rng)
				l.B.W.W[0], l.B.W.W[1] = 0.25, -1.5
				if special != 0 {
					l.W.W.W[rng.Intn(2*d)] = special
				}
				all := hiddenRows(rng, 13, d)
				for n := 1; n <= 9; n++ {
					for _, lo := range []int{0, all.R - n} { // special rows first, then ordinary ones
						h := all.Rows(lo, lo+n)
						got := make([]float64, 2*n)
						before := reluKernelCalls.Load()
						l.ApplyReLU2Rows(got, h)
						for r := 0; r < n; r++ {
							w0, w1 := l.ApplyReLU2(h.Row(r))
							if math.Float64bits(got[2*r]) != math.Float64bits(w0) || math.Float64bits(got[2*r+1]) != math.Float64bits(w1) {
								t.Fatalf("d %d, W special %v, rows [%d, %d), row %d: (%v, %v), ApplyReLU2 (%v, %v)",
									d, special, lo, lo+n, r, got[2*r], got[2*r+1], w0, w1)
							}
						}
						runs := int64(0)
						if haveAVX2 && !portable && n >= 4 && d%4 == 0 && special == 0 {
							runs = 1
						}
						if ran := reluKernelCalls.Load() - before; ran != runs {
							t.Fatalf("d %d, W special %v, %d rows: the AVX2 read-out ran %d times, want %d", d, special, n, ran, runs)
						}
					}
				}
			}
		}
	})
}

// BenchmarkApplyReLU2Rows times the read-out of a 120-row pool at the
// repository benchmark's dimension, 128 hidden units, in blocks of four
// rows as the Eq. 7 caller makes them, on the portable path and the AVX2
// kernel.
func BenchmarkApplyReLU2Rows(b *testing.B) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, kernel := range []string{"portable", "avx2"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			if kernel == "avx2" && !haveAVX2 {
				b.Skip("no AVX2")
			}
			SetMatMulPortable(kernel == "portable")
			rng := rand.New(rand.NewSource(37))
			const d = 128
			l := NewLinear("out", d, 2, rng)
			h := oracleMat(rng, 120, d, 0, false)
			dst := make([]float64, 2*h.R)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < h.R; r += 4 {
					l.ApplyReLU2Rows(dst[2*r:], h.Rows(r, r+4))
				}
			}
		})
	}
}

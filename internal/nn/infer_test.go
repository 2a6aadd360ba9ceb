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

// TestApplyReLU2BitEqual: the fused two-logit read-out is the ReLU pass
// followed by Linear.ApplyInto, bit for bit — on ordinary rows, rows
// with exact zeros and negative zeros (units matMulRows skips), rows
// with no positive unit (the sums stay at +0 and the bias comes out
// alone) and a row with a NaN, which must reach both logits.
func TestApplyReLU2BitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const d = 37
	l := NewLinear("out", d, 2, rng)
	l.B.W.W[0], l.B.W.W[1] = 0.25, -1.5
	negZero := math.Copysign(0, -1)
	rows := NewMat(64, d)
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
			row[d/2] = math.NaN()
		case 3:
			row[0], row[d-1] = math.Inf(1), math.Inf(-1)
		}
	}
	hid := rows.Clone()
	applyActInPlace(ActReLU, hid)
	want := NewMat(rows.R, 2)
	l.ApplyInto(want, hid)
	for i := 0; i < rows.R; i++ {
		g0, g1 := l.ApplyReLU2(rows.Row(i))
		w := want.Row(i)
		if math.Float64bits(g0) != math.Float64bits(w[0]) || math.Float64bits(g1) != math.Float64bits(w[1]) {
			t.Fatalf("row %d: fused (%v, %v), ReLU then ApplyInto (%v, %v)", i, g0, g1, w[0], w[1])
		}
	}
	if g0, g1 := l.ApplyReLU2(rows.Row(2)); !math.IsNaN(g0) || !math.IsNaN(g1) {
		t.Fatalf("NaN unit did not reach both logits: (%v, %v)", g0, g1)
	}
}

package nn

import (
	"fmt"
	"math"
)

// MatMul returns a·b with gradient propagation to both inputs.
func (tp *Tape) MatMul(a, b *T) *T {
	if a.C() != b.R() {
		panic(fmt.Sprintf("nn: MatMul: %d×%d · %d×%d", a.R(), a.C(), b.R(), b.C()))
	}
	val := NewMat(a.R(), b.C())
	MatMulInto(val, a.Val, b.Val)
	var out *T
	out = tp.node(val, func() { matMulBackward(a, b, out.Grad) })
	return out
}

// matMulBackward adds dOut·Bᵀ to a.Grad and Aᵀ·dOut to b.Grad, doing
// arithmetic only for the rows of dOut that hold a non-zero — in the
// graph encoder's backward, the few rows its receptive field reaches.
// The result is bit-identical to the two full products
// (refMatMulBackward in the tests):
//
//   - A zero row of dOut makes a +0 row of dOut·Bᵀ: matMulRows skips
//     every zero multiplier, so B is never read. Adding +0 changes no
//     gradient, because gradients start at +0 and are only ever added
//     to, and under round-to-nearest x + y is −0 only when both are −0:
//     no gradient is ever −0.
//   - Each element of Aᵀ·dOut still sums a[k][i]·dOut[k][j] over k
//     ascending from +0, skipping a[k][i] == 0. A zero row k adds ±0
//     wherever a[k][i] is finite, which leaves the (never −0) sum as it
//     was, so the row is skipped — unless row k of A holds a NaN or
//     ±Inf, since 0·Inf = NaN must still propagate. The kept rows of A
//     are gathered transposed and multiplied by the same rows of dOut
//     through MatMulInto, whose per-element sum is exactly that one
//     (refMatMulRows), row-blocked and forked like any product; with no
//     row kept, Aᵀ·dOut is +0 and is not added.
func matMulBackward(a, b *T, dOut *Mat) {
	var rows, keep []int
	for r := 0; r < dOut.R; r++ {
		switch {
		case !zeroRow(dOut.Row(r)):
			rows = append(rows, r)
			keep = append(keep, r)
		case !finite(a.Val.Row(r)):
			keep = append(keep, r)
		}
	}
	if len(rows) > 0 {
		bt := NewMat(b.C(), b.R())
		TransposeInto(bt, b.Val)
		g := gatherRows(dOut, rows)
		da := NewMat(g.R, a.C())
		MatMulInto(da, g, bt)
		for t, r := range rows {
			ga, dr := a.Grad.Row(r), da.Row(t)
			for j := range ga {
				ga[j] += dr[j]
			}
		}
	}
	if len(keep) == 0 {
		return
	}
	at := NewMat(a.C(), len(keep))
	for t, k := range keep {
		for i, v := range a.Val.Row(k) {
			at.W[i*len(keep)+t] = v
		}
	}
	db := NewMat(b.R(), b.C())
	MatMulInto(db, at, gatherRows(dOut, keep))
	b.Grad.AddInPlace(db)
}

// gatherRows returns the given ascending rows of m as a new matrix, or
// m itself when they are all of its rows.
func gatherRows(m *Mat, rows []int) *Mat {
	if len(rows) == m.R {
		return m
	}
	g := NewMat(len(rows), m.C)
	for t, r := range rows {
		copy(g.Row(t), m.Row(r))
	}
	return g
}

// zeroRow reports whether every value in r is zero (either sign).
func zeroRow(r []float64) bool {
	for _, v := range r {
		if v != 0 {
			return false
		}
	}
	return true
}

// finite reports whether every value in r is finite: v−v is 0 for a
// finite v and NaN for NaN and ±Inf.
func finite(r []float64) bool {
	for _, v := range r {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Add returns a + b elementwise. Shapes must match.
func (tp *Tape) Add(a, b *T) *T {
	a.Val.mustSameShape(b.Val, "Add")
	val := a.Val.Clone()
	val.AddInPlace(b.Val)
	var out *T
	out = tp.node(val, func() {
		a.Grad.AddInPlace(out.Grad)
		b.Grad.AddInPlace(out.Grad)
	})
	return out
}

// Sub returns a - b elementwise.
func (tp *Tape) Sub(a, b *T) *T {
	return tp.Add(a, tp.Scale(b, -1))
}

// AddRow broadcasts the 1×c row vector b over every row of a (n×c),
// the bias-add of a linear layer.
func (tp *Tape) AddRow(a, b *T) *T {
	if b.R() != 1 || b.C() != a.C() {
		panic(fmt.Sprintf("nn: AddRow: %d×%d + %d×%d", a.R(), a.C(), b.R(), b.C()))
	}
	val := a.Val.Clone()
	for i := 0; i < val.R; i++ {
		row := val.Row(i)
		for j := range row {
			row[j] += b.Val.W[j]
		}
	}
	var out *T
	out = tp.node(val, func() {
		a.Grad.AddInPlace(out.Grad)
		for i := 0; i < out.Grad.R; i++ {
			row := out.Grad.Row(i)
			for j := range row {
				b.Grad.W[j] += row[j]
			}
		}
	})
	return out
}

// Mul returns a ⊙ b elementwise. Shapes must match.
func (tp *Tape) Mul(a, b *T) *T {
	a.Val.mustSameShape(b.Val, "Mul")
	val := NewMat(a.R(), a.C())
	for i := range val.W {
		val.W[i] = a.Val.W[i] * b.Val.W[i]
	}
	var out *T
	out = tp.node(val, func() {
		for i := range out.Grad.W {
			a.Grad.W[i] += out.Grad.W[i] * b.Val.W[i]
			b.Grad.W[i] += out.Grad.W[i] * a.Val.W[i]
		}
	})
	return out
}

// Scale returns s·a.
func (tp *Tape) Scale(a *T, s float64) *T {
	val := a.Val.Clone()
	val.ScaleInPlace(s)
	var out *T
	out = tp.node(val, func() {
		for i := range out.Grad.W {
			a.Grad.W[i] += s * out.Grad.W[i]
		}
	})
	return out
}

// ReLU returns max(0, a) elementwise.
func (tp *Tape) ReLU(a *T) *T {
	val := NewMat(a.R(), a.C())
	for i, v := range a.Val.W {
		if v > 0 {
			val.W[i] = v
		}
	}
	var out *T
	out = tp.node(val, func() {
		for i := range out.Grad.W {
			if a.Val.W[i] > 0 {
				a.Grad.W[i] += out.Grad.W[i]
			}
		}
	})
	return out
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *T) *T {
	val := NewMat(a.R(), a.C())
	for i, v := range a.Val.W {
		val.W[i] = math.Tanh(v)
	}
	var out *T
	out = tp.node(val, func() {
		for i := range out.Grad.W {
			a.Grad.W[i] += out.Grad.W[i] * (1 - val.W[i]*val.W[i])
		}
	})
	return out
}

// Sigmoid returns 1/(1+e^-a) elementwise.
func (tp *Tape) Sigmoid(a *T) *T {
	val := NewMat(a.R(), a.C())
	for i, v := range a.Val.W {
		val.W[i] = 1 / (1 + math.Exp(-v))
	}
	var out *T
	out = tp.node(val, func() {
		for i := range out.Grad.W {
			a.Grad.W[i] += out.Grad.W[i] * val.W[i] * (1 - val.W[i])
		}
	})
	return out
}

// ConcatCols returns [a | b]: rows must match.
func (tp *Tape) ConcatCols(a, b *T) *T {
	if a.R() != b.R() {
		panic(fmt.Sprintf("nn: ConcatCols: %d×%d | %d×%d", a.R(), a.C(), b.R(), b.C()))
	}
	val := NewMat(a.R(), a.C()+b.C())
	for i := 0; i < a.R(); i++ {
		copy(val.Row(i)[:a.C()], a.Val.Row(i))
		copy(val.Row(i)[a.C():], b.Val.Row(i))
	}
	var out *T
	out = tp.node(val, func() {
		for i := 0; i < a.R(); i++ {
			gRow := out.Grad.Row(i)
			aRow := a.Grad.Row(i)
			bRow := b.Grad.Row(i)
			for j := range aRow {
				aRow[j] += gRow[j]
			}
			for j := range bRow {
				bRow[j] += gRow[a.C()+j]
			}
		}
	})
	return out
}

// RepeatRow tiles the 1×c row vector a into n rows.
func (tp *Tape) RepeatRow(a *T, n int) *T {
	if a.R() != 1 {
		panic(fmt.Sprintf("nn: RepeatRow: input is %d×%d", a.R(), a.C()))
	}
	val := NewMat(n, a.C())
	for i := 0; i < n; i++ {
		copy(val.Row(i), a.Val.W)
	}
	var out *T
	out = tp.node(val, func() {
		for i := 0; i < n; i++ {
			row := out.Grad.Row(i)
			for j := range row {
				a.Grad.W[j] += row[j]
			}
		}
	})
	return out
}

// SoftmaxRows applies softmax independently to each row.
func (tp *Tape) SoftmaxRows(a *T) *T {
	val := NewMat(a.R(), a.C())
	for i := 0; i < a.R(); i++ {
		softmaxInto(val.Row(i), a.Val.Row(i))
	}
	var out *T
	out = tp.node(val, func() {
		for i := 0; i < a.R(); i++ {
			g := out.Grad.Row(i)
			y := val.Row(i)
			var dot float64
			for j := range g {
				dot += g[j] * y[j]
			}
			aRow := a.Grad.Row(i)
			for j := range aRow {
				aRow[j] += y[j] * (g[j] - dot)
			}
		}
	})
	return out
}

// softmaxInto writes softmax(src) into dst with max-subtraction for
// numerical stability; dst may be src. The exponentials go through one
// ExpInto call.
func softmaxInto(dst, src []float64) {
	dst = dst[:len(src)]
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	for i, v := range src {
		dst[i] = v - mx
	}
	ExpInto(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Transpose returns aᵀ.
func (tp *Tape) Transpose(a *T) *T {
	val := NewMat(a.C(), a.R())
	TransposeInto(val, a.Val)
	var out *T
	out = tp.node(val, func() {
		g := NewMat(a.R(), a.C())
		TransposeInto(g, out.Grad)
		a.Grad.AddInPlace(g)
	})
	return out
}

// Gather selects the given rows of a (an embedding lookup). Gradients
// scatter-add back to the selected rows. Indices out of range panic.
func (tp *Tape) Gather(a *T, indices []int) *T {
	val := NewMat(len(indices), a.C())
	for i, idx := range indices {
		copy(val.Row(i), a.Val.Row(idx))
	}
	idx := append([]int(nil), indices...)
	var out *T
	out = tp.node(val, func() {
		for i, id := range idx {
			row := a.Grad.Row(id)
			g := out.Grad.Row(i)
			for j := range row {
				row[j] += g[j]
			}
		}
	})
	return out
}

// SumRows returns the 1×c column-wise sum over all rows of a.
func (tp *Tape) SumRows(a *T) *T {
	val := NewMat(1, a.C())
	for i := 0; i < a.R(); i++ {
		row := a.Val.Row(i)
		for j, v := range row {
			val.W[j] += v
		}
	}
	var out *T
	out = tp.node(val, func() {
		for i := 0; i < a.R(); i++ {
			row := a.Grad.Row(i)
			for j := range row {
				row[j] += out.Grad.W[j]
			}
		}
	})
	return out
}

// MeanRows returns the 1×c column-wise mean over all rows of a.
func (tp *Tape) MeanRows(a *T) *T {
	return tp.Scale(tp.SumRows(a), 1/float64(a.R()))
}

// SumAll returns the 1×1 sum of every element of a.
func (tp *Tape) SumAll(a *T) *T {
	val := NewMat(1, 1)
	for _, v := range a.Val.W {
		val.W[0] += v
	}
	var out *T
	out = tp.node(val, func() {
		g := out.Grad.W[0]
		for i := range a.Grad.W {
			a.Grad.W[i] += g
		}
	})
	return out
}

// CrossEntropy computes the mean cross-entropy between row-wise
// softmax(logits) and the given target distribution rows, with label
// smoothing already folded into target (see SmoothedTargets). Returns a
// 1×1 loss node.
func (tp *Tape) CrossEntropy(logits *T, target *Mat) *T {
	logits.Val.mustSameShape(target, "CrossEntropy")
	n := logits.R()
	prob := NewMat(n, logits.C())
	val := NewMat(1, 1)
	for i := 0; i < n; i++ {
		softmaxInto(prob.Row(i), logits.Val.Row(i))
		tRow := target.Row(i)
		pRow := prob.Row(i)
		for j := range tRow {
			if tRow[j] > 0 {
				val.W[0] -= tRow[j] * math.Log(math.Max(pRow[j], 1e-12))
			}
		}
	}
	val.W[0] /= float64(n)
	var out *T
	out = tp.node(val, func() {
		g := out.Grad.W[0] / float64(n)
		for i := 0; i < n; i++ {
			lRow := logits.Grad.Row(i)
			pRow := prob.Row(i)
			tRow := target.Row(i)
			for j := range lRow {
				lRow[j] += g * (pRow[j] - tRow[j])
			}
		}
	})
	return out
}

// SmoothedTargets builds one-hot target rows with label smoothing eps
// (the paper uses 0.1, §IV-D): the true class gets 1-eps, the rest
// share eps uniformly.
func SmoothedTargets(n, classes int, labels []int, eps float64) *Mat {
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SmoothedTargets: %d labels for %d rows", len(labels), n))
	}
	t := NewMat(n, classes)
	off := eps / float64(classes)
	for i, lbl := range labels {
		for j := 0; j < classes; j++ {
			t.Set(i, j, off)
		}
		t.Set(i, lbl, 1-eps+off)
	}
	return t
}

// RMSNorm normalizes each row by its root-mean-square:
// y = x / sqrt(mean(x²) + eps). Used by the transformer baseline for
// training stability.
func (tp *Tape) RMSNorm(a *T, eps float64) *T {
	n := a.C()
	val := NewMat(a.R(), n)
	rms := make([]float64, a.R())
	for i := 0; i < a.R(); i++ {
		row := a.Val.Row(i)
		var sq float64
		for _, v := range row {
			sq += v * v
		}
		r := math.Sqrt(sq/float64(n) + eps)
		rms[i] = r
		out := val.Row(i)
		for j, v := range row {
			out[j] = v / r
		}
	}
	var out *T
	out = tp.node(val, func() {
		for i := 0; i < a.R(); i++ {
			x := a.Val.Row(i)
			g := out.Grad.Row(i)
			r := rms[i]
			var dot float64
			for j := range g {
				dot += g[j] * x[j]
			}
			ga := a.Grad.Row(i)
			r3n := r * r * r * float64(n)
			for j := range ga {
				ga[j] += g[j]/r - x[j]*dot/r3n
			}
		}
	})
	return out
}

// StackRows vertically concatenates tensors with equal column counts.
// At least one input is required (programmer error otherwise).
func (tp *Tape) StackRows(parts []*T) *T {
	if len(parts) == 0 {
		panic("nn: StackRows: no inputs")
	}
	cols := parts[0].C()
	rows := 0
	for _, p := range parts {
		if p.C() != cols {
			panic(fmt.Sprintf("nn: StackRows: column mismatch %d vs %d", p.C(), cols))
		}
		rows += p.R()
	}
	val := NewMat(rows, cols)
	at := 0
	for _, p := range parts {
		copy(val.W[at*cols:], p.Val.W)
		at += p.R()
	}
	ps := append([]*T(nil), parts...)
	var out *T
	out = tp.node(val, func() {
		at := 0
		for _, p := range ps {
			n := p.R() * cols
			for i := 0; i < n; i++ {
				p.Grad.W[i] += out.Grad.W[at*cols+i]
			}
			at += p.R()
		}
	})
	return out
}

// Softmax applies a numerically stable softmax to a plain vector,
// returning a new slice (inference-path helper, no autodiff).
func Softmax(xs []float64) []float64 {
	out := make([]float64, len(xs))
	softmaxInto(out, xs)
	return out
}

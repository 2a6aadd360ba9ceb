package nn

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrad verifies the analytic gradient of a scalar-valued function
// of one parameter against central finite differences.
//
// buildLoss must construct the loss on a fresh tape, reading the
// parameter's current weights.
func checkGrad(t *testing.T, name string, p *Param, buildLoss func(tp *Tape) *T) {
	t.Helper()
	p.ZeroGrad()
	tp := NewTape()
	loss := buildLoss(tp)
	if err := tp.Backward(loss); err != nil {
		t.Fatalf("%s: backward: %v", name, err)
	}
	const h = 1e-6
	for i := range p.W.W {
		orig := p.W.W[i]
		p.W.W[i] = orig + h
		lp := buildLoss(NewTape()).Val.W[0]
		p.W.W[i] = orig - h
		lm := buildLoss(NewTape()).Val.W[0]
		p.W.W[i] = orig
		numeric := (lp - lm) / (2 * h)
		analytic := p.Grad.W[i]
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if math.Abs(numeric-analytic)/scale > 1e-4 {
			t.Errorf("%s: grad[%d] analytic %v vs numeric %v", name, i, analytic, numeric)
		}
	}
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("w", 3, 2, rng)
	x := NewMat(2, 3)
	x.Xavier(rng)
	checkGrad(t, "matmul", p, func(tp *Tape) *T {
		return tp.SumAll(tp.MatMul(tp.Const(x), tp.Var(p)))
	})
}

func TestGradAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParam("w", 2, 2, rng)
	o := NewMat(2, 2)
	o.Xavier(rng)
	checkGrad(t, "add", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Add(tp.Var(p), tp.Const(o)))
	})
	checkGrad(t, "sub", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Sub(tp.Const(o), tp.Var(p)))
	})
	checkGrad(t, "scale", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Scale(tp.Var(p), -2.5))
	})
}

func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewParam("b", 1, 3, rng)
	x := NewMat(4, 3)
	x.Xavier(rng)
	checkGrad(t, "addrow-bias", b, func(tp *Tape) *T {
		// Square so the gradient depends on the bias value.
		y := tp.AddRow(tp.Const(x), tp.Var(b))
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParam("w", 2, 3, rng)
	o := NewMat(2, 3)
	o.Xavier(rng)
	checkGrad(t, "mul", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Mul(tp.Var(p), tp.Const(o)))
	})
	checkGrad(t, "mul-self", p, func(tp *Tape) *T {
		v := tp.Var(p)
		return tp.SumAll(tp.Mul(v, v))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParam("w", 3, 3, rng)
	p.W.ScaleInPlace(2) // move away from the ReLU kink at 0... then nudge
	for i := range p.W.W {
		if math.Abs(p.W.W[i]) < 0.05 {
			p.W.W[i] = 0.1
		}
	}
	checkGrad(t, "relu", p, func(tp *Tape) *T {
		return tp.SumAll(tp.ReLU(tp.Var(p)))
	})
	checkGrad(t, "tanh", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Tanh(tp.Var(p)))
	})
	checkGrad(t, "sigmoid", p, func(tp *Tape) *T {
		return tp.SumAll(tp.Sigmoid(tp.Var(p)))
	})
}

func TestGradConcatRepeatTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewParam("w", 2, 3, rng)
	o := NewMat(2, 2)
	o.Xavier(rng)
	checkGrad(t, "concat", p, func(tp *Tape) *T {
		y := tp.ConcatCols(tp.Var(p), tp.Const(o))
		return tp.SumAll(tp.Mul(y, y))
	})
	q := NewParam("q", 1, 4, rng)
	checkGrad(t, "repeatrow", q, func(tp *Tape) *T {
		y := tp.RepeatRow(tp.Var(q), 3)
		return tp.SumAll(tp.Mul(y, y))
	})
	checkGrad(t, "transpose", p, func(tp *Tape) *T {
		y := tp.Transpose(tp.Var(p))
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewParam("w", 3, 4, rng)
	mask := NewMat(3, 4)
	mask.Xavier(rng)
	checkGrad(t, "softmaxrows", p, func(tp *Tape) *T {
		y := tp.SoftmaxRows(tp.Var(p))
		return tp.SumAll(tp.Mul(y, tp.Const(mask)))
	})
}

func TestGradGatherSumMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewParam("emb", 5, 3, rng)
	checkGrad(t, "gather", p, func(tp *Tape) *T {
		y := tp.Gather(tp.Var(p), []int{0, 2, 2, 4}) // repeated index
		return tp.SumAll(tp.Mul(y, y))
	})
	checkGrad(t, "sumrows", p, func(tp *Tape) *T {
		y := tp.SumRows(tp.Var(p))
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewParam("logits-w", 3, 4, rng)
	x := NewMat(2, 3)
	x.Xavier(rng)
	target := SmoothedTargets(2, 4, []int{1, 3}, 0.1)
	checkGrad(t, "crossentropy", p, func(tp *Tape) *T {
		logits := tp.MatMul(tp.Const(x), tp.Var(p))
		return tp.CrossEntropy(logits, target)
	})
}

func TestGradAttentionEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	att := NewAttention("att", 4, 3, rng)
	query := NewMat(1, 4)
	query.Xavier(rng)
	keys := NewMat(5, 4)
	keys.Xavier(rng)
	for _, p := range att.Params() {
		p := p
		checkGrad(t, "attention."+p.Name, p, func(tp *Tape) *T {
			out, _ := att.Forward(tp, tp.Const(query), tp.Const(keys), tp.Const(keys))
			return tp.SumAll(tp.Mul(out, out))
		})
	}
}

func TestGradMLPEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mlp := NewMLP("mlp", []int{3, 5, 2}, ActTanh, rng)
	x := NewMat(4, 3)
	x.Xavier(rng)
	target := SmoothedTargets(4, 2, []int{0, 1, 1, 0}, 0.1)
	for _, p := range mlp.Params() {
		p := p
		checkGrad(t, "mlp."+p.Name, p, func(tp *Tape) *T {
			return tp.CrossEntropy(mlp.Forward(tp, tp.Const(x)), target)
		})
	}
}

func TestGradSharedNodeFanOut(t *testing.T) {
	// A node consumed by two downstream ops must receive gradient from
	// both paths.
	rng := rand.New(rand.NewSource(12))
	p := NewParam("w", 2, 2, rng)
	checkGrad(t, "fanout", p, func(tp *Tape) *T {
		v := tp.Var(p)
		a := tp.Scale(v, 2)
		b := tp.Tanh(v)
		return tp.SumAll(tp.Add(a, b))
	})
}

func TestGradStackRows(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := NewParam("w", 2, 3, rng)
	o := NewMat(1, 3)
	o.Xavier(rng)
	checkGrad(t, "stackrows", p, func(tp *Tape) *T {
		v := tp.Var(p)
		a := tp.Gather(v, []int{0})
		b := tp.Gather(v, []int{1})
		y := tp.StackRows([]*T{a, tp.Const(o), b, v})
		return tp.SumAll(tp.Mul(y, y))
	})
}

func TestGradRMSNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := NewParam("w", 3, 4, rng)
	mask := NewMat(3, 4)
	mask.Xavier(rng)
	checkGrad(t, "rmsnorm", p, func(tp *Tape) *T {
		y := tp.RMSNorm(tp.Var(p), 1e-6)
		return tp.SumAll(tp.Mul(y, tp.Const(mask)))
	})
}

func TestBackwardValidation(t *testing.T) {
	tp := NewTape()
	rng := rand.New(rand.NewSource(13))
	p := NewParam("w", 2, 2, rng)
	v := tp.Var(p)
	if err := tp.Backward(v); err == nil {
		t.Error("Backward on non-scalar did not error")
	}
	other := NewTape()
	loss := other.SumAll(other.Var(p))
	if err := tp.Backward(loss); err == nil {
		t.Error("Backward with foreign node did not error")
	}
}

package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize ||W - target||² — Adam should drive W close to target.
	rng := rand.New(rand.NewSource(1))
	p := NewParam("w", 2, 2, rng)
	target := FromSlice(2, 2, []float64{1, -2, 3, 0.5})
	opt := NewAdam()
	opt.LR = 0.05
	opt.WeightDecay = 0
	for iter := 0; iter < 500; iter++ {
		tp := NewTape()
		diff := tp.Sub(tp.Var(p), tp.Const(target))
		loss := tp.SumAll(tp.Mul(diff, diff))
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step([]*Param{p})
	}
	for i := range p.W.W {
		if math.Abs(p.W.W[i]-target.W[i]) > 0.01 {
			t.Fatalf("Adam did not converge: %v vs %v", p.W.W, target.W)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP("xor", []int{2, 8, 2}, ActTanh, rng)
	x := FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []int{0, 1, 1, 0}
	target := SmoothedTargets(4, 2, labels, 0)
	opt := NewAdam()
	opt.LR = 0.05
	opt.WeightDecay = 0
	var last float64
	for iter := 0; iter < 800; iter++ {
		tp := NewTape()
		loss := tp.CrossEntropy(mlp.Forward(tp, tp.Const(x)), target)
		last = loss.Val.W[0]
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step(mlp.Params())
	}
	if last > 0.1 {
		t.Fatalf("XOR loss did not converge: %v", last)
	}
	// All four points classified correctly.
	tp := NewTape()
	out := mlp.Forward(tp, tp.Const(x))
	for i, want := range labels {
		row := out.Val.Row(i)
		got := 0
		if row[1] > row[0] {
			got = 1
		}
		if got != want {
			t.Errorf("XOR sample %d: predicted %d, want %d (logits %v)", i, got, want, row)
		}
	}
}

func TestAttentionLearnsToSelect(t *testing.T) {
	// Teach the attention to copy the value row whose key has the
	// largest first coordinate — a key-only property that additive
	// attention can express through Wk.
	rng := rand.New(rand.NewSource(3))
	d, h, n := 4, 8, 5
	att := NewAttention("sel", d, h, rng)
	opt := NewAdam()
	opt.LR = 0.02
	opt.WeightDecay = 0

	mkExample := func(rng *rand.Rand) (q, k *Mat, idx int) {
		k = NewMat(n, d)
		k.Xavier(rng)
		k.ScaleInPlace(3)
		idx = 0
		for i := 1; i < n; i++ {
			if k.At(i, 0) > k.At(idx, 0) {
				idx = i
			}
		}
		q = NewMat(1, d)
		q.Xavier(rng)
		return q, k, idx
	}

	var last float64
	for iter := 0; iter < 800; iter++ {
		q, k, idx := mkExample(rng)
		tp := NewTape()
		out, _ := att.Forward(tp, tp.Const(q), tp.Const(k), tp.Const(k))
		want := FromSlice(1, d, k.Row(idx))
		diff := tp.Sub(out, tp.Const(want))
		loss := tp.SumAll(tp.Mul(diff, diff))
		last = loss.Val.W[0]
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step(att.Params())
	}
	if last > 3.0 {
		t.Fatalf("attention selection loss %v did not fall", last)
	}
	// Attention weight peaks on the max-first-coordinate row on fresh
	// examples, most of the time.
	testRng := rand.New(rand.NewSource(99))
	correct := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		q, k, idx := mkExample(testRng)
		tp := NewTape()
		_, w := att.Forward(tp, tp.Const(q), tp.Const(k), tp.Const(k))
		best, bestIdx := -1.0, -1
		for i := 0; i < n; i++ {
			if v := w.Val.At(i, 0); v > best {
				best, bestIdx = v, i
			}
		}
		if bestIdx == idx {
			correct++
		}
	}
	if correct < trials*3/4 {
		t.Errorf("attention selected the right row %d/%d times", correct, trials)
	}
}

// TestParamGradLazy: a parameter holds no gradient matrix until a
// backward pass or the optimizer needs one, and a missing gradient is
// all zeros to both — an Adam step from nil equals one from an explicit
// zero gradient to the bit (weight decay and the moments still move).
func TestParamGradLazy(t *testing.T) {
	mk := func() *Param { return NewParam("w", 3, 2, rand.New(rand.NewSource(5))) }
	lazy, eager := mk(), mk()
	if lazy.Grad != nil || NewZeroParam("b", 1, 2).Grad != nil {
		t.Fatal("a new parameter already holds a gradient matrix")
	}
	lazy.ZeroGrad() // nil-safe
	if norm := ClipGradNorm([]*Param{lazy}, 1); norm != 0 {
		t.Errorf("norm of a missing gradient = %v, want 0", norm)
	}
	lazy.Grad = nil
	eager.Grad = NewMat(3, 2)
	opt := NewAdam()
	for step := 0; step < 3; step++ {
		opt.Step([]*Param{lazy})
		opt.Step([]*Param{eager})
	}
	for i, v := range eager.W.W {
		if lazy.W.W[i] != v {
			t.Fatalf("weight %d after 3 steps: from nil %v, from zeros %v", i, lazy.W.W[i], v)
		}
	}
	// Backward allocates on first accumulation.
	p := mk()
	tp := NewTape()
	if err := tp.Backward(tp.SumAll(tp.Var(p))); err != nil {
		t.Fatal(err)
	}
	if p.Grad == nil || p.Grad.W[0] != 1 {
		t.Fatalf("gradient after Backward: %+v", p.Grad)
	}
}

func TestClipGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParam("w", 1, 2, rng)
	p.Grad = RowVec(3, 4) // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	if math.Abs(math.Hypot(p.Grad.W[0], p.Grad.W[1])-1) > 1e-12 {
		t.Errorf("post-clip norm = %v", math.Hypot(p.Grad.W[0], p.Grad.W[1]))
	}
	// Below the cap: untouched.
	p.Grad.W[0], p.Grad.W[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.W[0] != 0.3 {
		t.Error("clip modified small gradient")
	}
}

func TestSmoothedTargets(t *testing.T) {
	tg := SmoothedTargets(2, 4, []int{0, 3}, 0.1)
	// Rows sum to 1.
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += tg.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if tg.At(0, 0) <= tg.At(0, 1) {
		t.Error("true class not dominant")
	}
	if math.Abs(tg.At(0, 1)-0.025) > 1e-12 {
		t.Errorf("off-class mass = %v, want 0.025", tg.At(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("label/row mismatch did not panic")
		}
	}()
	SmoothedTargets(3, 2, []int{0}, 0.1)
}

func TestEmbeddingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedding("emb", 10, 4, rng)
	tp := NewTape()
	out := e.Forward(tp, []int{3, 3, 7})
	if out.R() != 3 || out.C() != 4 {
		t.Fatalf("embedding shape %d×%d", out.R(), out.C())
	}
	for j := 0; j < 4; j++ {
		if out.Val.At(0, j) != out.Val.At(1, j) {
			t.Error("same id produced different rows")
		}
		if out.Val.At(0, j) != e.Table.W.At(3, j) {
			t.Error("row does not match table")
		}
	}
	if len(e.Params()) != 1 {
		t.Error("embedding params wrong")
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mlp := NewMLP("m", []int{2, 3, 2}, ActReLU, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, mlp.Params()); err != nil {
		t.Fatal(err)
	}
	// Restore into a freshly initialized copy.
	mlp2 := NewMLP("m", []int{2, 3, 2}, ActReLU, rand.New(rand.NewSource(77)))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), mlp2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range mlp.Params() {
		q := mlp2.Params()[i]
		for j := range p.W.W {
			if p.W.W[j] != q.W.W[j] {
				t.Fatalf("param %s differs after round trip", p.Name)
			}
		}
	}
	// Missing param errors.
	other := NewParam("nope", 2, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), []*Param{other}); err == nil {
		t.Error("missing param did not error")
	}
	// Shape mismatch errors.
	bad := NewParam("m.0.W", 5, 5, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), []*Param{bad}); err == nil {
		t.Error("shape mismatch did not error")
	}
	if err := LoadParams(bytes.NewBufferString("{"), mlp.Params()); err == nil {
		t.Error("bad JSON did not error")
	}
}

func TestNewMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMLP with one size did not panic")
		}
	}()
	NewMLP("bad", []int{3}, ActReLU, rand.New(rand.NewSource(1)))
}

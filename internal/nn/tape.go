package nn

import (
	"fmt"
	"math/rand"
)

// Param is a trainable parameter: a weight matrix with an accumulated
// gradient and Adam moment buffers. Create with NewParam; reuse across
// tapes (one tape per forward/backward pass).
type Param struct {
	Name string
	W    *Mat
	// Grad is nil until a backward pass or the optimizer first needs it
	// (grad), so a model that is only loaded and matched with holds no
	// gradient matrices; nil reads as all zeros.
	Grad *Mat
	// Adam state, lazily allocated by the optimizer.
	m, v *Mat
	step int
}

// NewParam allocates a named r×c parameter initialized with Xavier
// uniform values.
func NewParam(name string, r, c int, rng *rand.Rand) *Param {
	p := &Param{Name: name, W: NewMat(r, c)}
	p.W.Xavier(rng)
	return p
}

// NewZeroParam allocates a zero-initialized parameter (used for biases).
func NewZeroParam(name string, r, c int) *Param {
	return &Param{Name: name, W: NewMat(r, c)}
}

// grad returns the gradient matrix, allocating it (zeroed) on first use.
func (p *Param) grad() *Mat {
	if p.Grad == nil {
		p.Grad = NewMat(p.W.R, p.W.C)
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// T is a tensor node on an autodiff tape: a value matrix, a gradient
// buffer filled in by the backward pass, and a closure that propagates
// the node's gradient to its inputs. Grad is nil until Backward starts,
// so a tape that only runs forward allocates no gradient buffers.
type T struct {
	tape *Tape
	Val  *Mat
	Grad *Mat
	back func()
}

// R returns the row count of the node's value.
func (t *T) R() int { return t.Val.R }

// C returns the column count of the node's value.
func (t *T) C() int { return t.Val.C }

// Tape records a computation for reverse-mode differentiation. Nodes
// are appended in execution order, which is already a topological
// order, so Backward walks them in reverse. A tape is used for exactly
// one forward/backward pass; create a new one per example or batch.
// Tapes are not safe for concurrent use.
type Tape struct {
	nodes  []*T
	params []paramBinding
}

type paramBinding struct {
	p    *Param
	node *T
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// node appends a new tensor node with the given value and backward
// closure.
func (tp *Tape) node(val *Mat, back func()) *T {
	t := &T{tape: tp, Val: val, back: back}
	tp.nodes = append(tp.nodes, t)
	return t
}

// Const places a fixed matrix on the tape. Its gradient is computed but
// goes nowhere. The matrix is not copied; do not mutate it until the
// pass completes.
func (tp *Tape) Const(m *Mat) *T {
	return tp.node(m, nil)
}

// Var places a trainable parameter on the tape. After Backward, the
// node's gradient is accumulated into p.Grad. The parameter matrix is
// not copied.
func (tp *Tape) Var(p *Param) *T {
	t := tp.node(p.W, nil)
	tp.params = append(tp.params, paramBinding{p: p, node: t})
	return t
}

// Backward allocates every node's gradient buffer (zeroed), seeds the
// gradient of loss (which must be a 1×1 node on this tape) with 1 and
// propagates through the tape in reverse, then
// accumulates parameter gradients into their Grad buffers. It returns
// an error if loss is not scalar or not on this tape.
func (tp *Tape) Backward(loss *T) error {
	if loss.tape != tp {
		return fmt.Errorf("nn: Backward: loss is not on this tape")
	}
	if loss.Val.R != 1 || loss.Val.C != 1 {
		return fmt.Errorf("nn: Backward: loss must be 1×1, got %d×%d", loss.Val.R, loss.Val.C)
	}
	for _, n := range tp.nodes {
		if n.Grad == nil {
			n.Grad = NewMat(n.Val.R, n.Val.C)
		}
	}
	loss.Grad.W[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if n := tp.nodes[i]; n.back != nil {
			n.back()
		}
	}
	for _, b := range tp.params {
		b.p.grad().AddInPlace(b.node.Grad)
	}
	return nil
}

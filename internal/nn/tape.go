package nn

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
// the node's gradient to its inputs. Grad is nil until Backward first
// adds to it, so a tape that only runs forward allocates no gradient
// buffers, and a Var node read by one MatMul as its weight or by one
// Gather never gets one: Backward hands that reader's contribution to
// the parameter directly (sink).
type T struct {
	tape *Tape
	Val  *Mat
	Grad *Mat
	back func()
	// param is the parameter a Var node binds; nil on any other node.
	param *Param
	// uses counts the ops that read the node, an op reading it twice
	// twice; Backward's seed counts as one more.
	uses int
	// sink holds, on a Var node with one reader that is a MatMul weight
	// or a Gather, that reader's gradient contribution in the factored
	// form it was computed from, for Backward to add to param.
	sink *sink
}

// R returns the row count of the node's value.
func (t *T) R() int { return t.Val.R }

// C returns the column count of the node's value.
func (t *T) C() int { return t.Val.C }

// grad returns the node's gradient buffer, allocating it (zeroed) on
// first use.
func (t *T) grad() *Mat {
	if t.Grad == nil {
		t.Grad = NewMat(t.Val.R, t.Val.C)
	}
	return t.Grad
}

// sole reports whether t is a Var node that one op reads once: its
// gradient is that op's contribution alone, which the op may leave in
// t.sink instead of adding it to a zeroed Grad.
func (t *T) sole() bool { return t.param != nil && t.uses == 1 }

// sink is one op's contribution to a parameter's gradient, kept as the
// factors it is formed from: at·g for a MatMul weight (rows nil), or,
// for a Gather, row t of g added to row rows[t].
type sink struct {
	at, g *Mat
	rows  []int
}

// Tape records a computation for reverse-mode differentiation. Nodes
// are appended in execution order, which is already a topological
// order, so Backward walks them in reverse. A tape is used for exactly
// one forward/backward pass; create a new one per example or batch.
// Tapes are not safe for concurrent use.
type Tape struct {
	nodes []*T
	// transposed holds the transposes MatMul backwards have read, by the
	// matrix transposed.
	transposed map[*Mat]*Mat
	// products holds the value of each MatMul by its operands' values.
	products map[[2]*Mat]*Mat
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// node appends a new tensor node with the given value and backward
// closure, reading the inputs in.
func (tp *Tape) node(val *Mat, back func(), in ...*T) *T {
	for _, x := range in {
		x.uses++
	}
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
	t.param = p
	return t
}

// transpose returns mᵀ, built once per tape: no value changes while
// the tape lives, and a weight or an attention's keys is transposed by
// every product that reads it.
func (tp *Tape) transpose(m *Mat) *Mat {
	if mt := tp.transposed[m]; mt != nil {
		return mt
	}
	mt := NewMat(m.C, m.R)
	TransposeInto(mt, m)
	if tp.transposed == nil {
		tp.transposed = make(map[*Mat]*Mat)
	}
	tp.transposed[m] = mt
	return mt
}

// Backward seeds the gradient of loss (which must be a 1×1 node on this
// tape) with 1, propagates through the tape in reverse — each node's
// gradient buffer is allocated (zeroed) when a reader first adds to it,
// or before its own closure runs — then adds each Var node's gradient
// to its parameter's Grad in forward order. It returns an error if loss
// is not scalar or not on this tape.
//
// A Var node with a sink has no gradient buffer: its one reader's
// contribution c goes to the parameter as p.Grad += c, formed in a
// scratch buffer when its turn comes, where a buffer would give
// p.Grad += (0 + c). The two are equal bit for bit: 0 + c is c but for
// c = −0, which it makes +0, and no gradient is ever −0 — a gradient
// starts at +0 and is only ever added to (ClipGradNorm scales it by a
// positive factor), and under round-to-nearest x + y is −0 only when
// both are −0 — so adding either zero leaves it as it is. A Gather's
// contribution adds its rows in index order, as the buffer would have
// summed them; the rows it does not touch add +0, which changes nothing.
func (tp *Tape) Backward(loss *T) error {
	if loss.tape != tp {
		return fmt.Errorf("nn: Backward: loss is not on this tape")
	}
	if loss.Val.R != 1 || loss.Val.C != 1 {
		return fmt.Errorf("nn: Backward: loss must be 1×1, got %d×%d", loss.Val.R, loss.Val.C)
	}
	loss.uses++
	loss.grad().W[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if n := tp.nodes[i]; n.back != nil {
			n.grad()
			n.back()
		}
	}
	var scratch []float64
	for _, n := range tp.nodes {
		if n.param == nil {
			continue
		}
		g := n.param.grad()
		switch {
		case n.sink != nil:
			scratch = n.sink.addTo(g, scratch)
		case n.Grad != nil:
			g.AddInPlace(n.Grad)
		}
	}
	return nil
}

// addTo adds the contribution to the gradient g, forming a MatMul's
// product in scratch (grown as needed and returned for the next sink).
func (s *sink) addTo(g *Mat, scratch []float64) []float64 {
	if s.rows == nil {
		if cap(scratch) < len(g.W) {
			scratch = make([]float64, len(g.W))
		}
		c := &Mat{R: g.R, C: g.C, W: scratch[:len(g.W)]}
		MatMulInto(c, s.at, s.g)
		g.AddInPlace(c)
		return scratch
	}
	// A Gather: sum each row's share from +0 in index order, as the
	// buffer would have, then add the sum.
	if cap(scratch) < g.C {
		scratch = make([]float64, g.C)
	}
	sum := scratch[:g.C]
	order := make([]int, len(s.rows))
	for t := range order {
		order[t] = t
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(s.rows[x], s.rows[y]) })
	for lo := 0; lo < len(order); {
		r := s.rows[order[lo]]
		clear(sum)
		hi := lo
		for ; hi < len(order) && s.rows[order[hi]] == r; hi++ {
			addRow(sum, s.g.Row(order[hi]))
		}
		addRow(g.Row(r), sum)
		lo = hi
	}
	return scratch
}

// addRow adds x to d elementwise, four at a time.
func addRow(d, x []float64) {
	x = x[:len(d)]
	j := 0
	for ; j+4 <= len(d); j += 4 {
		dd, xx := d[j:j+4:j+4], x[j:j+4:j+4]
		dd[0] += xx[0]
		dd[1] += xx[1]
		dd[2] += xx[2]
		dd[3] += xx[3]
	}
	for ; j < len(d); j++ {
		d[j] += x[j]
	}
}

package mrg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/nn"
)

// EncoderMode selects the representation-learning variant.
type EncoderMode int

const (
	// HetGNN is the full Het-Graph Encoder with per-relation weights
	// (the paper's model).
	HetGNN EncoderMode = iota
	// HomoGNN collapses all relations into one adjacency with a single
	// propagation weight per layer (ablation LHMM-H).
	HomoGNN
	// MLPOnly skips message passing: embeddings come from the lookup
	// table followed by an MLP layer (ablation LHMM-E).
	MLPOnly
)

// String returns the mode name.
func (m EncoderMode) String() string {
	switch m {
	case HomoGNN:
		return "homo-gnn"
	case MLPOnly:
		return "mlp-only"
	default:
		return "het-gnn"
	}
}

// Encoder is the Het-Graph Encoder (§IV-B): q rounds of relation-wise
// message passing,
//
//	z_i^rel    = mean_{j∈N_i^rel} W_rel h_j        (Eq. 4)
//	h_i^{l+1}  = σ(Σ_rel W_agg z_i^rel + W_0 h_i)  (Eq. 5)
//
// over the multi-relational graph, producing synergistic embeddings for
// towers and road segments in a shared d-dimensional space.
type Encoder struct {
	Mode   EncoderMode
	Dim    int
	Rounds int

	Init *nn.Param // |V|×d initial embedding table (W_init of §IV-B)

	// Per round: relation weights (HetGNN), or a single weight
	// (HomoGNN), plus the self weight W_0 and aggregation weight W_agg.
	WCO, WSQ, WTP []*nn.Param
	WHomo         []*nn.Param
	W0            []*nn.Param
	WAgg          []*nn.Param

	// MLPOnly head.
	MLP *nn.MLP

	// Cached merged adjacency for HomoGNN.
	merged *nn.Sparse
}

// InitParam names the |V|×dim initial embedding table in a saved
// model; its column count is the model's embedding dimension.
const InitParam = "enc.init"

// NewEncoder builds an encoder for the given graph. dim is the
// embedding size (the paper uses 128), rounds the number of message
// passing iterations q (the paper uses 2).
func NewEncoder(g *Graph, mode EncoderMode, dim, rounds int, rng *rand.Rand) (*Encoder, error) {
	if dim <= 0 || rounds <= 0 {
		return nil, fmt.Errorf("mrg: dim and rounds must be positive")
	}
	e := &Encoder{
		Mode:   mode,
		Dim:    dim,
		Rounds: rounds,
		Init:   nn.NewParam(InitParam, g.NumNodes(), dim, rng),
	}
	switch mode {
	case MLPOnly:
		e.MLP = nn.NewMLP("enc.mlp", []int{dim, dim, dim}, nn.ActReLU, rng)
	case HomoGNN:
		var err error
		e.merged, err = g.Merged()
		if err != nil {
			return nil, err
		}
		for l := 0; l < rounds; l++ {
			e.WHomo = append(e.WHomo, nn.NewParam(fmt.Sprintf("enc.%d.Whomo", l), dim, dim, rng))
			e.W0 = append(e.W0, nn.NewParam(fmt.Sprintf("enc.%d.W0", l), dim, dim, rng))
			e.WAgg = append(e.WAgg, nn.NewParam(fmt.Sprintf("enc.%d.Wagg", l), dim, dim, rng))
		}
	default:
		for l := 0; l < rounds; l++ {
			e.WCO = append(e.WCO, nn.NewParam(fmt.Sprintf("enc.%d.Wco", l), dim, dim, rng))
			e.WSQ = append(e.WSQ, nn.NewParam(fmt.Sprintf("enc.%d.Wsq", l), dim, dim, rng))
			e.WTP = append(e.WTP, nn.NewParam(fmt.Sprintf("enc.%d.Wtp", l), dim, dim, rng))
			e.W0 = append(e.W0, nn.NewParam(fmt.Sprintf("enc.%d.W0", l), dim, dim, rng))
			e.WAgg = append(e.WAgg, nn.NewParam(fmt.Sprintf("enc.%d.Wagg", l), dim, dim, rng))
		}
	}
	return e, nil
}

// relations returns the adjacencies Eq. 4 averages over, in the order
// relWeights lists their weights: CO, SQ, TP (HetGNN), the merged
// adjacency (HomoGNN), none (MLPOnly).
func (e *Encoder) relations(g *Graph) []*nn.Sparse {
	switch e.Mode {
	case MLPOnly:
		return nil
	case HomoGNN:
		return []*nn.Sparse{e.merged}
	default:
		return []*nn.Sparse{g.CO, g.SQ, g.TP}
	}
}

// relWeights returns round l's relation weights W_rel, one per
// relations entry.
func (e *Encoder) relWeights(l int) []*nn.Param {
	if e.Mode == HomoGNN {
		return []*nn.Param{e.WHomo[l]}
	}
	return []*nn.Param{e.WCO[l], e.WSQ[l], e.WTP[l]}
}

// Field is the receptive field of a set of output rows: for each round,
// the rows of h^l it reads and each relation's adjacency restricted to
// them. Build with Encoder.Field; a Field belongs to the encoder and
// graph it was built for.
type Field struct {
	// rows[l] lists the nodes of h^l, ascending: rows[0] the rows of
	// Init the pass reads, rows[len(rows)-1] the output.
	rows   [][]int
	rounds []fieldRound
}

// fieldRound is one round of Eqs. 4–5 restricted to a field.
type fieldRound struct {
	self []int      // positions in rows[l] of rows[l+1], W_0's input
	rels []fieldRel // one per Encoder.relations entry
}

// fieldRel is one relation's Eq. 4 within a round: rows[l+1] average
// over their in-neighbours, which sit at positions in of rows[l].
type fieldRel struct {
	in    []int      // positions in rows[l]
	nodes []int      // the in-neighbours' node ids (a's columns)
	a     *nn.Sparse // |rows[l+1]|×|in| rows of the full adjacency; nil if no in-neighbours
}

// Field returns the receptive field of the given output rows (node ids,
// strictly ascending; nil = every node). Round l needs its own output
// rows and, for each relation, their in-neighbours; the relation's
// restricted adjacency keeps the full graph's row-normalised values
// (Eqs. 4–5 average over all neighbours) and numbers rows and columns
// in ascending node order, so every per-row sum of the restricted pass
// runs over the same terms in the same order as the full one. Every
// node as output is restricted the same way: each relation still reads
// only its in-neighbours, for CO and SQ the training trips' footprint.
// Each round marks its rows in a node-indexed table, reads it out in
// node order and finds each node's position in a second one. It panics
// on rows that are not strictly ascending node ids (programmer error).
func (e *Encoder) Field(g *Graph, rows []int) *Field {
	nodes := g.NumNodes()
	if rows == nil {
		rows = make([]int, nodes)
		for v := range rows {
			rows[v] = v
		}
	}
	for i, v := range rows {
		if v < 0 || v >= nodes || (i > 0 && v <= rows[i-1]) {
			panic(fmt.Sprintf("mrg: Field: row %d (%d) is not a strictly ascending node id below %d", i, v, nodes))
		}
	}
	rels := e.relations(g)
	rounds := e.Rounds
	if e.Mode == MLPOnly {
		rounds = 0
	}
	f := &Field{rows: make([][]int, rounds+1), rounds: make([]fieldRound, rounds)}
	f.rows[rounds] = rows
	read := make([]bool, nodes) // nodes of h^l the round reads
	at := make([]int, nodes)    // node → its position in h^l's rows
	for l := rounds - 1; l >= 0; l-- {
		out := f.rows[l+1]
		rd := &f.rounds[l]
		clear(read)
		n := 0
		mark := func(vs []int) {
			for _, v := range vs {
				if !read[v] {
					read[v] = true
					n++
				}
			}
		}
		mark(out)
		for _, r := range rels {
			var fr fieldRel
			if fr.nodes = r.Cols(out); len(fr.nodes) > 0 {
				fr.a = r.Sub(out, fr.nodes)
				mark(fr.nodes)
			}
			rd.rels = append(rd.rels, fr)
		}
		in := make([]int, 0, n)
		for v, ok := range read {
			if ok {
				at[v] = len(in)
				in = append(in, v)
			}
		}
		f.rows[l] = in
		rd.self = positions(at, out)
		for i := range rd.rels {
			rd.rels[i].in = positions(at, rd.rels[i].nodes)
		}
	}
	return f
}

// positions returns at[v] for each of nodes: their indexes in the
// round's rows.
func positions(at, nodes []int) []int {
	pos := make([]int, len(nodes))
	for i, v := range nodes {
		pos[i] = at[v]
	}
	return pos
}

// Rows returns the nodes of h^l in the field, ascending — l = 0 the
// rows of Init the pass reads, l = Rounds (0 for MLPOnly) the output.
func (f *Field) Rows(l int) []int { return f.rows[l] }

// Local returns the output row that holds node v, its index in the
// output rows, or −1 if v is outside.
func (f *Field) Local(v int) int {
	if at, ok := slices.BinarySearch(f.rows[len(f.rows)-1], v); ok {
		return at
	}
	return -1
}

// Adjacency returns round l's restricted adjacency of relation r (CO,
// SQ, TP for HetGNN; the merged adjacency for HomoGNN) and the node id
// of each of its columns; its rows are Rows(l+1). Both are nil when the
// rows have no in-neighbours in that relation.
func (f *Field) Adjacency(l, r int) (*nn.Sparse, []int) {
	fr := f.rounds[l].rels[r]
	return fr.a, fr.nodes
}

// Forward computes the embeddings of the field's output rows on the
// tape: row r of the result is node Rows(last)[r] (node r for an
// every-node field, the |V|×d matrix). h⁰ gathers the Init rows the
// field reads, so the gather's backward scatters into the full Init
// gradient; each product takes its rows of h^l through a gather. For
// finite parameters, values, loss and every gradient equal those of
// Eqs. 4–5 over the graph's own adjacency bit for bit (DESIGN §8b
// "Set-up").
func (e *Encoder) Forward(tp *nn.Tape, f *Field) *nn.T {
	h := pick(tp, tp.Var(e.Init), f.rows[0])
	if e.Mode == MLPOnly {
		return e.MLP.Forward(tp, h)
	}
	for l, rd := range f.rounds {
		ws := e.relWeights(l)
		zs := make([]*nn.T, len(rd.rels))
		for r, fr := range rd.rels {
			if fr.a == nil {
				// No in-neighbours: Eq. 4's mean is the zero row, as the
				// full adjacency's empty rows give it.
				zs[r] = tp.Const(nn.NewMat(len(f.rows[l+1]), e.Dim))
				continue
			}
			zs[r] = tp.SpMM(fr.a, tp.MatMul(pick(tp, h, fr.in), tp.Var(ws[r])))
		}
		sum := zs[0]
		for _, z := range zs[1:] {
			sum = tp.Add(sum, z)
		}
		agg := tp.MatMul(sum, tp.Var(e.WAgg[l]))
		self := tp.MatMul(pick(tp, h, rd.self), tp.Var(e.W0[l]))
		h = tp.ReLU(tp.Add(agg, self))
	}
	return h
}

// Embed computes the embeddings of the field's output rows without a
// tape: the encoder's inference form, as MLP.Apply is the MLP's. Row r
// of the result is node Rows(last)[r], as in Forward, and every value
// equals Forward's bit for bit, for any Init and weights, at any worker
// count. Each product is the nn.MatMulInto or Sparse.MulInto of the
// tape op over the same rows, and each output row is computed from
// that row's inputs alone, so the rows can be split among workers; a
// row set that is contiguous in h^l (all of it, say, or the segments'
// in-neighbours of TP) is read in place instead of gathered, which
// changes no row of a product.
//
// A round first takes each relation's product h^l_rel·W_rel, forked
// across rows by nn.MatMulInto as any large product is. Then
// GOMAXPROCS workers take blocks of embedBlock output rows
// (nn.RowBlocks); for its block a worker computes each relation's mean
// (Sparse.MulRowsInto), their sum in the tape's order ((z_CO + z_SQ) +
// z_TP), agg = sum·W_agg straight into the block's rows of h^{l+1},
// self = h^l_self·W_0, and the fused agg + self with the ReLU, whose
// branch-free form (relu) maps NaN and −0 to +0 as the tape's does. A
// relation with no in-neighbours adds nothing, where the tape adds its
// +0 mean: an Eq. 4 mean starts from +0, so the sum is never −0 and
// adding +0 leaves it as it is. MLPOnly is MLP.Apply, whose ReLU is the
// tape's. A round holds h^l, h^{l+1} and, per relation, its product
// and the gather of its rows when they are not contiguous, each sized
// to its rows and reused across rounds, plus four blocks of scratch per
// worker; the result is one of them.
func (e *Encoder) Embed(f *Field) *nn.Mat {
	return e.embed(f, runtime.GOMAXPROCS(0), embedBlock)
}

// embedBlock is the number of output rows a worker of Embed takes at a
// time: at dim 128 its four scratch blocks take 256 KiB.
const embedBlock = 64

// embed is Embed on the given number of workers and block size.
func (e *Encoder) embed(f *Field, workers, block int) *nn.Mat {
	d := e.Dim
	// take returns a free buffer that holds rows×d values, or a new one.
	var free [][]float64
	take := func(rows int) []float64 {
		for k, w := range free {
			if cap(w) >= rows*d {
				free = append(free[:k], free[k+1:]...)
				return w
			}
		}
		return make([]float64, rows*d)
	}
	// hBuf is the buffer h^l lives in; nil while h⁰ is a view of Init.
	var hBuf []float64
	if !contiguous(f.rows[0]) {
		hBuf = take(len(f.rows[0]))
	}
	h := rowsOf(e.Init.W, f.rows[0], hBuf)
	if e.Mode == MLPOnly {
		return e.MLP.Apply(h)
	}
	scratch := make([][4][]float64, workers)
	for l, rd := range f.rounds {
		n := len(f.rows[l+1])
		ws := e.relWeights(l)
		prods := make([]*nn.Mat, len(rd.rels))
		var bufs [][]float64 // this round's gathers and products
		for r, fr := range rd.rels {
			if fr.a == nil {
				continue
			}
			var g []float64
			if !contiguous(fr.in) {
				g = take(len(fr.in))
				bufs = append(bufs, g)
			}
			p := take(len(fr.in))
			bufs = append(bufs, p)
			prods[r] = mat(p, len(fr.in), d)
			nn.MatMulInto(prods[r], rowsOf(h, fr.in, g), ws[r].W)
		}
		nextBuf := take(n)
		next := mat(nextBuf, n, d)
		nn.RowBlocks(n, block, workers, func(w, lo, hi int) {
			sc := &scratch[w]
			if sc[0] == nil {
				for i := range sc {
					sc[i] = make([]float64, block*d)
				}
			}
			b := hi - lo
			sum := mat(sc[0], b, d)
			first := true
			for r, fr := range rd.rels {
				if fr.a == nil {
					continue
				}
				if first {
					fr.a.MulRowsInto(sum, prods[r], lo)
					first = false
					continue
				}
				z := mat(sc[1], b, d)
				fr.a.MulRowsInto(z, prods[r], lo)
				for i, v := range z.W {
					sum.W[i] += v
				}
			}
			if first {
				sum.Zero()
			}
			agg := next.Rows(lo, hi)
			nn.MatMulInto(agg, sum, e.WAgg[l].W)
			self := mat(sc[2], b, d)
			nn.MatMulInto(self, rowsOf(h, rd.self[lo:hi], sc[3]), e.W0[l].W)
			for i, v := range self.W {
				agg.W[i] = relu(agg.W[i] + v)
			}
		})
		free = append(free, bufs...)
		if hBuf != nil {
			free = append(free, hBuf)
		}
		h, hBuf = next, nextBuf
	}
	return h
}

// relu returns v > 0 ? v : +0 without a branch, which the add+ReLU
// loop would otherwise mispredict on its mix of signs. It keeps v's
// bits b when 1 ≤ b ≤ +Inf's bits — the positive values, +Inf
// included — and clears them for ±0, the negatives and every NaN. With
// d = b − 1 that is d < +Inf's bits as unsigned: d's top bit clear and
// d − +Inf's bits negative, so the mask is the sign of ^d & (d − inf).
func relu(v float64) float64 {
	const inf = 0x7FF0000000000000
	b := math.Float64bits(v)
	d := b - 1
	return math.Float64frombits(b & uint64(int64(^d&(d-inf))>>63))
}

// mat returns an r×c matrix over the front of w.
func mat(w []float64, r, c int) *nn.Mat { return &nn.Mat{R: r, C: c, W: w[: r*c : r*c]} }

// contiguous reports whether the strictly ascending positions pos are
// one run, pos[0] … pos[0]+len(pos)−1.
func contiguous(pos []int) bool { return pos[len(pos)-1]-pos[0] == len(pos)-1 }

// rowsOf returns the rows of x at the strictly ascending positions pos:
// a view of x when they are contiguous, else a copy gathered into buf.
func rowsOf(x *nn.Mat, pos []int, buf []float64) *nn.Mat {
	if contiguous(pos) {
		return x.Rows(pos[0], pos[0]+len(pos))
	}
	g := mat(buf, len(pos), x.C)
	for t, r := range pos {
		copy(g.Row(t), x.Row(r))
	}
	return g
}

// pick returns the given rows of x, or x itself when they are all of
// its rows: a strictly ascending list as long as x is the identity.
func pick(tp *nn.Tape, x *nn.T, rows []int) *nn.T {
	if len(rows) == x.R() {
		return x
	}
	return tp.Gather(x, rows)
}

// Params returns all trainable parameters of the encoder.
func (e *Encoder) Params() []*nn.Param {
	ps := []*nn.Param{e.Init}
	for l := 0; l < len(e.W0); l++ {
		ps = append(ps, e.W0[l], e.WAgg[l])
	}
	for l := 0; l < len(e.WCO); l++ {
		ps = append(ps, e.WCO[l], e.WSQ[l], e.WTP[l])
	}
	for l := 0; l < len(e.WHomo); l++ {
		ps = append(ps, e.WHomo[l])
	}
	if e.MLP != nil {
		ps = append(ps, e.MLP.Params()...)
	}
	return ps
}

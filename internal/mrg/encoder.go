package mrg

import (
	"fmt"
	"math/rand"

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
	merged, mergedT *nn.Sparse
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
		e.merged, e.mergedT, err = g.Merged()
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

// Forward computes the |V|×d node embedding matrix on the tape.
func (e *Encoder) Forward(tp *nn.Tape, g *Graph) *nn.T {
	h := tp.Var(e.Init)
	switch e.Mode {
	case MLPOnly:
		return e.MLP.Forward(tp, h)
	case HomoGNN:
		for l := 0; l < e.Rounds; l++ {
			msg := tp.SpMM(e.merged, e.mergedT, tp.MatMul(h, tp.Var(e.WHomo[l])))
			agg := tp.MatMul(msg, tp.Var(e.WAgg[l]))
			self := tp.MatMul(h, tp.Var(e.W0[l]))
			h = tp.ReLU(tp.Add(agg, self))
		}
		return h
	default:
		for l := 0; l < e.Rounds; l++ {
			zCO := tp.SpMM(g.CO, g.COt, tp.MatMul(h, tp.Var(e.WCO[l])))
			zSQ := tp.SpMM(g.SQ, g.SQt, tp.MatMul(h, tp.Var(e.WSQ[l])))
			zTP := tp.SpMM(g.TP, g.TPt, tp.MatMul(h, tp.Var(e.WTP[l])))
			sum := tp.Add(tp.Add(zCO, zSQ), zTP)
			agg := tp.MatMul(sum, tp.Var(e.WAgg[l]))
			self := tp.MatMul(h, tp.Var(e.W0[l]))
			h = tp.ReLU(tp.Add(agg, self))
		}
		return h
	}
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

package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/cellular"
	"repro/internal/mrg"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Model is a trained LHMM: the multi-relational graph and encoder, the
// observation and transition probability learners, and frozen node
// embeddings for inference. A model Load or LoadModel returns is
// inference-only: it was built from the saved node embeddings, not the
// encoder, and holds neither the encoder (Enc is nil) nor the graph's
// relation adjacencies, which matching never reads.
type Model struct {
	Cfg Config

	Net    *roadnet.Network
	Cells  *cellular.Net
	Router *roadnet.Router
	Graph  *mrg.Graph

	Enc *mrg.Encoder // nil once released (inference-only)

	// Observation learner (§IV-C).
	ObsAtt  *nn.Attention // Eq. 6: context-aware point representation
	ObsMLP  *nn.MLP       // Eq. 7: implicit point-road correlation (2 classes)
	ObsFuse *nn.MLP       // Eq. 8: fuse implicit + explicit (2 classes)

	// Transition learner (§IV-D).
	TransAtt  *nn.Attention // Eq. 9: per-road trajectory representation
	TransMLP  *nn.MLP       // Eq. 10: road-in-trajectory likelihood (2 classes)
	TransFuse *nn.MLP       // Eq. 12: fuse implicit + explicit (2 classes)

	// nodes holds all |V| rows of the node embeddings from the last
	// RefreshEmbeddings (towers, then segments): the entry Save writes
	// in place of the encoder. Nil on a loaded model.
	nodes *nn.Mat

	// emb holds the frozen tower rows of the node embeddings, one per
	// tower (tower ids are nodes 0..NumTowers−1), the only rows matching
	// reads directly: a view of nodes on a trained model, a copy of the
	// file's tower rows on a loaded one. The segment rows reach matching
	// only through the tables below.
	emb *nn.Mat

	// obsSeg is the segment half of Eq. 7's first layer, one row per
	// segment: obsSeg[s] = h(s)·W1_seg + b1, where h(s) is segment s's
	// embedding row and ObsMLP's first weight is split by rows as
	// W1 = [W1_seg ; W1_ctx] over its [segment ; context] input. Frozen
	// beside emb by RefreshEmbeddings and read-only afterwards, so
	// anything that mutates ObsMLP or the encoder must be followed by
	// RefreshEmbeddings.
	obsSeg *nn.Mat

	// transSeg and transQ are Eq. 10's and Eq. 9's per-segment constants,
	// frozen the same way and under the same rule (anything that mutates
	// TransMLP, TransAtt or the encoder must be followed by
	// RefreshEmbeddings). transSeg[s] = h(s)·W1_seg + b1 is the
	// segment half of TransMLP's first layer, split by rows as
	// W1 = [W1_seg ; W1_x] over its [segment ; read-out] input; transQ[s]
	// is the query half of segment s's additive attention score
	// (nn.Attention.QueryScoresInto). See session.roadProbRows.
	transSeg *nn.Mat
	transQ   []float64

	// distScale normalizes the explicit distance feature; calibrated
	// from the training data (mean point-to-positive-road distance) and
	// stored as a 1×1 parameter so Save/Load round-trips it.
	distScale *nn.Param

	// transGamma sharpens the learned transition probability
	// (P_T^γ): at repository data scales the fuse net's outputs are
	// flatter than the paper's fully-trained learner, so γ is selected
	// on the validation split (the paper likewise tunes
	// hyper-parameters on validation, §V-A2). Stored as a parameter so
	// Save/Load round-trips it.
	transGamma *nn.Param

	// weightsHash is a loaded model's WeightsHash: the SHA-256 of the
	// entry section its file was decoded from.
	weightsHash [32]byte
}

// NodesParam names the |V|×dim frozen node-embedding rows in a saved
// model (towers, then segments); its column count is the model's
// embedding dimension.
const NodesParam = "emb.nodes"

// ErrInferenceOnly is what Save returns, and RefreshEmbeddings panics
// with, on a model Load or LoadModel returned: it holds no encoder and
// no segment rows, so it can neither write a model file nor refreeze.
var ErrInferenceOnly = errors.New("core: model is inference-only: a loaded model holds no encoder; save the trained model, as lhmm train does")

// errNotFrozen is what Save returns before the first RefreshEmbeddings:
// there are no node rows to write.
var errNotFrozen = errors.New("core: save: no frozen node embeddings: RefreshEmbeddings first")

// encoderRounds is the number of Het-Graph Encoder message-passing
// iterations q (paper: 2).
const encoderRounds = 2

// attDim is the hidden size of the two attentions (Eqs. 6 and 9): half
// the embedding dimension, at least 1.
func attDim(dim int) int { return max(1, dim/2) }

// New builds an untrained model over the dataset's networks using the
// given training trips for graph construction.
func New(ds *traj.Dataset, trainTrips []*traj.Trip, cfg Config) (*Model, error) {
	return build(ds, trainTrips, cfg, true)
}

// NewForLoad builds the model Load fills: the graph, router and heads
// of New, but no encoder, whose |V|×dim init table and round weights a
// model file replaces with its node rows. It is inference-only from the
// start: Save returns ErrInferenceOnly and RefreshEmbeddings panics with
// it, loaded or not.
func NewForLoad(ds *traj.Dataset, trainTrips []*traj.Trip, cfg Config) (*Model, error) {
	return build(ds, trainTrips, cfg, false)
}

// build is New, or NewForLoad when encoder is false. New's encoder draws
// from the rng before the heads, so NewForLoad's heads have New's shapes
// but other values, which Load overwrites.
func build(ds *traj.Dataset, trainTrips []*traj.Trip, cfg Config, encoder bool) (*Model, error) {
	cfg = cfg.withDefaults()
	graph, err := mrg.BuildGraph(ds.Net, ds.Cells, trainTrips)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var enc *mrg.Encoder
	if encoder {
		if enc, err = mrg.NewEncoder(graph, cfg.EncoderMode, cfg.Dim, encoderRounds, rng); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	d, h := cfg.Dim, attDim(cfg.Dim)
	m := &Model{
		Cfg:        cfg,
		Net:        ds.Net,
		Cells:      ds.Cells,
		Router:     roadnet.NewRouter(ds.Net),
		Graph:      graph,
		Enc:        enc,
		ObsAtt:     nn.NewAttention("obs.att", d, h, rng),
		ObsMLP:     nn.NewMLP("obs.mlp", []int{2 * d, d, 2}, nn.ActReLU, rng),
		ObsFuse:    nn.NewMLP("obs.fuse", []int{3, 8, 2}, nn.ActReLU, rng),
		TransAtt:   nn.NewAttention("trans.att", d, h, rng),
		TransMLP:   nn.NewMLP("trans.mlp", []int{2 * d, d, 2}, nn.ActReLU, rng),
		TransFuse:  nn.NewMLP("trans.fuse", []int{3, 8, 2}, nn.ActReLU, rng),
		distScale:  nn.NewZeroParam("meta.distScale", 1, 1),
		transGamma: nn.NewZeroParam("meta.transGamma", 1, 1),
	}
	m.distScale.W.W[0] = 1000
	m.transGamma.W.W[0] = 1
	return m, nil
}

// implicitParams returns the parameters trained in phase 1.
func (m *Model) implicitParams() []*nn.Param {
	return append(m.Enc.Params(), m.headParams()...)
}

// headParams returns phase 1's parameters after the encoder: the two
// attentions and implicit MLPs.
func (m *Model) headParams() []*nn.Param {
	ps := append([]*nn.Param(nil), m.ObsAtt.Params()...)
	ps = append(ps, m.ObsMLP.Params()...)
	ps = append(ps, m.TransAtt.Params()...)
	return append(ps, m.TransMLP.Params()...)
}

// fuseParams returns the parameters fine-tuned in phase 2.
func (m *Model) fuseParams() []*nn.Param {
	ps := append([]*nn.Param(nil), m.ObsFuse.Params()...)
	ps = append(ps, m.TransFuse.Params()...)
	return ps
}

// AllParams returns every trainable parameter plus serialized
// calibration state; on a loaded model, all but the encoder's.
func (m *Model) AllParams() []*nn.Param {
	var ps []*nn.Param
	if m.Enc != nil {
		ps = m.Enc.Params()
	}
	return append(ps, m.matchParams()...)
}

// matchParams returns AllParams after the encoder's: every parameter
// matching reads besides the node embeddings.
func (m *Model) matchParams() []*nn.Param {
	ps := append(m.headParams(), m.fuseParams()...)
	return append(ps, m.distScale, m.transGamma)
}

// fileParams returns the tensors of a weights file in Save's order: the
// node rows (omitted when nil), then matchParams.
func (m *Model) fileParams(nodes *nn.Mat) []*nn.Param {
	var ps []*nn.Param
	if nodes != nil {
		ps = []*nn.Param{{Name: NodesParam, W: nodes}}
	}
	return append(ps, m.matchParams()...)
}

// RefreshEmbeddings recomputes the node embeddings from the current
// encoder weights in one tape-free pass (Encoder.Embed over the
// every-node field, which restricts each relation to the rows of h^l it
// reads, as phase 1 does: DESIGN §8b "Set-up"), builds from the segment
// rows the per-segment tables matching reads — the segment halves of
// Eq. 7's and Eq. 10's first layers (obsSeg, transSeg) and the query
// half of Eq. 9's scores (transQ) — and keeps all the rows in nodes for
// Save, the tower rows in emb. Segments occupy one contiguous node range
// after the towers. Call after training and before matching. It panics
// with ErrInferenceOnly on a loaded model.
func (m *Model) RefreshEmbeddings() {
	if m.Enc == nil {
		panic(ErrInferenceOnly)
	}
	g := m.Graph
	m.nodes = m.Enc.Embed(m.Enc.Field(g, nil))
	m.segTables(m.nodes.Rows(g.NumTowers, g.NumNodes()))
	m.emb = m.nodes.Rows(0, g.NumTowers)
}

// segTables builds obsSeg, transSeg and transQ from the segment
// embedding rows, one per segment: GOMAXPROCS workers take blocks of
// segBlock segments, and for its block a worker computes all three
// tables' rows. Every row of a product, and each transQ entry, depends
// on its own segment's row alone, so the tables equal one pass over all
// segments bit for bit at any worker count.
func (m *Model) segTables(segs *nn.Mat) {
	m.buildSegTables(segs, runtime.GOMAXPROCS(0), segBlock)
}

// segBlock is the number of segments a worker of segTables takes at a
// time.
const segBlock = 128

// buildSegTables is segTables on the given number of workers and block
// size.
func (m *Model) buildSegTables(segs *nn.Mat, workers, block int) {
	obs, trans := m.segHalf(m.ObsMLP), m.segHalf(m.TransMLP)
	m.obsSeg = nn.NewMat(segs.R, m.Cfg.Dim)
	m.transSeg = nn.NewMat(segs.R, m.Cfg.Dim)
	m.transQ = make([]float64, segs.R)
	wss := make([]nn.Workspace, workers)
	nn.RowBlocks(segs.R, block, workers, func(w, lo, hi int) {
		x := segs.Rows(lo, hi)
		obs.ApplyInto(m.obsSeg.Rows(lo, hi), x)
		trans.ApplyInto(m.transSeg.Rows(lo, hi), x)
		wss[w].Reset()
		m.TransAtt.QueryScoresInto(m.transQ[lo:hi], &wss[w], x)
	})
}

// segHalf returns the layer x ↦ x·W1_seg + b1, the segment half of the
// first layer of an MLP whose input is [segment embedding ; per-point
// half].
func (m *Model) segHalf(mlp *nn.MLP) *nn.Linear {
	l1 := mlp.Layers[0]
	return &nn.Linear{W: &nn.Param{W: l1.W.W.Rows(0, m.Cfg.Dim)}, B: l1.B}
}

// obsCtxInto writes the context half of Eq. 7's first layer,
// ctx·W1_ctx, into dst: one row per context-aware point representation
// (Eq. 6) in ctx.
func (m *Model) obsCtxInto(dst, ctx *nn.Mat) {
	d := m.Cfg.Dim
	nn.MatMulInto(dst, ctx, m.ObsMLP.Layers[0].W.W.Rows(d, 2*d))
}

// transValInto writes the read-out half of Eq. 10's first layer,
// emb·W1_x, into dst: one row per raw point embedding (the values of
// Eq. 9) in emb.
func (m *Model) transValInto(dst, emb *nn.Mat) {
	d := m.Cfg.Dim
	nn.MatMulInto(dst, emb, m.TransMLP.Layers[0].W.W.Rows(d, 2*d))
}

// Embeddings returns the frozen tower embeddings, one NumTowers×Dim row
// per tower, row i tower i (nil before RefreshEmbeddings).
func (m *Model) Embeddings() *nn.Mat { return m.emb }

// towerEmb returns the frozen embedding row of a tower.
func (m *Model) towerEmb(id cellular.TowerID) []float64 {
	return m.emb.Row(m.Graph.TowerNode(id))
}

// gaussDist maps a point-to-road distance to the calibrated Gaussian
// explicit feature of Eq. 8 (σ = the calibrated mean positive-road
// distance).
func (m *Model) gaussDist(d float64) float64 {
	return math.Exp(m.gaussArg(d))
}

// gaussArg is gaussDist's exponent, −z²/2 with z = d/σ; the pool scoring
// batches it into one nn.ExpInto call.
func (m *Model) gaussArg(d float64) float64 {
	z := d / m.distScale.W.W[0]
	return -0.5 * z * z
}

// Save writes the model file: the node rows of the last
// RefreshEmbeddings in place of the encoder, then every other
// parameter. A loaded model has no encoder or node rows left to write
// and returns ErrInferenceOnly, writing nothing.
func (m *Model) Save(w io.Writer) error {
	switch {
	case m.Enc == nil:
		return ErrInferenceOnly
	case m.nodes == nil:
		return errNotFrozen
	}
	return nn.SaveParams(w, m.fileParams(m.nodes))
}

// Load restores a model file written by Save into a model constructed
// with the same configuration and dataset. It reads the frozen node
// rows from the file, so it runs no encoder, and leaves the model
// inference-only.
func (m *Model) Load(r io.Reader) error {
	pf, err := nn.ReadParams(r)
	if err != nil {
		return err
	}
	return m.load(pf)
}

// load applies a decoded model file, validated in full before any
// weight is written: the parameters matching reads, then the per-segment
// tables and the tower rows straight from the file's node rows, and the
// file's entry section as the weights hash. It then drops what only the
// encoder reads: the encoder (the |V|×d enc.init table and the round
// weights) and the graph's relation adjacencies. Matching reads the
// tower rows, the per-segment tables and the co-occurrence counts,
// which stay.
func (m *Model) load(pf *nn.ParamFile) error {
	g := m.Graph
	nodes := &nn.Mat{R: g.NumNodes(), C: m.Cfg.Dim} // takes the file's rows
	if err := pf.Apply(m.fileParams(nodes)); err != nil {
		return err
	}
	// The hash reads only the file's bytes, so it runs beside the tables.
	hashed := make(chan [32]byte, 1)
	go func() { hashed <- sha256.Sum256(pf.Section()) }()
	m.segTables(nodes.Rows(g.NumTowers, g.NumNodes()))
	m.emb = nodes.Rows(0, g.NumTowers).Clone() // a copy, so the segment rows can go
	m.weightsHash = <-hashed
	m.Enc, m.nodes = nil, nil
	g.ReleaseRelations()
	return nil
}

// LoadModel builds a model over ds for the weights file at path and
// restores the weights into it. The embedding dimension comes from the
// file (the column count of its node rows), so cfg.Dim is ignored;
// cfg.Seed only seeds weights the file overwrites. The file is decoded
// once and validated in full, as Load does, before any weight is
// written; the model is inference-only, as Load leaves it.
func LoadModel(ds *traj.Dataset, path string, cfg Config) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pf, err := nn.ReadParams(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	_, dim, ok := pf.Shape(NodesParam)
	if !ok {
		return nil, fmt.Errorf("core: load %s: %q not in file", path, NodesParam)
	}
	cfg.Dim = dim
	m, err := NewForLoad(ds, ds.TrainTrips(), cfg)
	if err != nil {
		return nil, err
	}
	if err := m.load(pf); err != nil {
		return nil, err
	}
	return m, nil
}

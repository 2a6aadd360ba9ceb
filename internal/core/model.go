package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"repro/internal/cellular"
	"repro/internal/mrg"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Model is a trained LHMM: the multi-relational graph and encoder, the
// observation and transition probability learners, and frozen node
// embeddings for inference.
type Model struct {
	Cfg Config

	Net    *roadnet.Network
	Cells  *cellular.Net
	Router *roadnet.Router
	Graph  *mrg.Graph

	Enc *mrg.Encoder

	// Observation learner (§IV-C).
	ObsAtt  *nn.Attention // Eq. 6: context-aware point representation
	ObsMLP  *nn.MLP       // Eq. 7: implicit point-road correlation (2 classes)
	ObsFuse *nn.MLP       // Eq. 8: fuse implicit + explicit (2 classes)

	// Transition learner (§IV-D).
	TransAtt  *nn.Attention // Eq. 9: per-road trajectory representation
	TransMLP  *nn.MLP       // Eq. 10: road-in-trajectory likelihood (2 classes)
	TransFuse *nn.MLP       // Eq. 12: fuse implicit + explicit (2 classes)

	// emb holds the frozen |V|×Dim node embeddings computed after
	// training; refreshed by RefreshEmbeddings.
	emb *nn.Mat

	// obsSeg is the segment half of Eq. 7's first layer, one row per
	// segment: obsSeg[s] = segEmb(s)·W1_seg + b1, where ObsMLP's first
	// weight is split by rows as W1 = [W1_seg ; W1_ctx] over its
	// [segment ; context] input. Frozen beside emb by RefreshEmbeddings
	// and read-only afterwards, so anything that mutates ObsMLP or the
	// encoder must be followed by RefreshEmbeddings.
	obsSeg *nn.Mat

	// transSeg and transQ are Eq. 10's and Eq. 9's per-segment constants,
	// frozen the same way and under the same rule (anything that mutates
	// TransMLP, TransAtt or the encoder must be followed by
	// RefreshEmbeddings). transSeg[s] = segEmb(s)·W1_seg + b1 is the
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
}

// New builds an untrained model over the dataset's networks using the
// given training trips for graph construction.
func New(ds *traj.Dataset, trainTrips []*traj.Trip, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	graph, err := mrg.BuildGraph(ds.Net, ds.Cells, trainTrips)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc, err := mrg.NewEncoder(graph, cfg.EncoderMode, cfg.Dim, cfg.Rounds, rng)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d, h := cfg.Dim, cfg.AttDim
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
	ps := m.Enc.Params()
	ps = append(ps, m.ObsAtt.Params()...)
	ps = append(ps, m.ObsMLP.Params()...)
	ps = append(ps, m.TransAtt.Params()...)
	ps = append(ps, m.TransMLP.Params()...)
	return ps
}

// fuseParams returns the parameters fine-tuned in phase 2.
func (m *Model) fuseParams() []*nn.Param {
	ps := append([]*nn.Param(nil), m.ObsFuse.Params()...)
	ps = append(ps, m.TransFuse.Params()...)
	return ps
}

// AllParams returns every trainable parameter plus serialized
// calibration state.
func (m *Model) AllParams() []*nn.Param {
	ps := append(m.implicitParams(), m.fuseParams()...)
	return append(ps, m.distScale, m.transGamma)
}

// RefreshEmbeddings recomputes and freezes the node embeddings from the
// current encoder weights, and with them the per-segment tables derived
// from them: the segment halves of Eq. 7's and Eq. 10's first layers
// (obsSeg, transSeg) and the query half of Eq. 9's scores (transQ).
// Segments occupy one contiguous node range of emb. Call after training
// and before matching. The encoder outputs every node through the same
// restriction as phase 1: each relation multiplies only the rows of h^l
// it reads (DESIGN §8b "Set-up").
func (m *Model) RefreshEmbeddings() {
	tp := nn.NewTape()
	m.emb = m.Enc.Forward(tp, m.Enc.Field(m.Graph, nil)).Val.Clone()
	segs := m.emb.Rows(m.Graph.NumTowers, m.Graph.NumNodes())
	m.obsSeg = m.segHalf(m.ObsMLP, segs)
	m.transSeg = m.segHalf(m.TransMLP, segs)
	m.transQ = make([]float64, segs.R)
	m.TransAtt.QueryScoresInto(m.transQ, nil, segs)
}

// segHalf returns segs·W1_seg + b1, the segment half of the first layer
// of an MLP whose input is [segment embedding ; per-point half].
func (m *Model) segHalf(mlp *nn.MLP, segs *nn.Mat) *nn.Mat {
	l1 := mlp.Layers[0]
	half := nn.Linear{W: &nn.Param{W: l1.W.W.Rows(0, m.Cfg.Dim)}, B: l1.B}
	out := nn.NewMat(segs.R, m.Cfg.Dim)
	half.ApplyInto(out, segs)
	return out
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

// Embeddings returns the frozen |V|×Dim embedding matrix (nil before
// RefreshEmbeddings).
func (m *Model) Embeddings() *nn.Mat { return m.emb }

// towerEmb returns the frozen embedding row of a tower.
func (m *Model) towerEmb(id cellular.TowerID) []float64 {
	return m.emb.Row(m.Graph.TowerNode(id))
}

// segEmb returns the frozen embedding row of a segment.
func (m *Model) segEmb(id roadnet.SegmentID) []float64 {
	return m.emb.Row(m.Graph.SegNode(id))
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

// Save writes all model weights.
func (m *Model) Save(w io.Writer) error {
	return nn.SaveParams(w, m.AllParams())
}

// Load restores model weights written by Save into a model constructed
// with the same configuration and dataset, then refreshes embeddings.
func (m *Model) Load(r io.Reader) error {
	if err := nn.LoadParams(r, m.AllParams()); err != nil {
		return err
	}
	m.RefreshEmbeddings()
	return nil
}

// LoadModel builds a model over ds for the weights file at path and
// restores the weights into it. The embedding dimension comes from the
// file (the column count of the encoder's initial embedding table), so
// cfg.Dim is ignored; cfg.Seed only seeds weights the file overwrites.
// The file is decoded once and validated in full, as Load does, before
// any weight is written.
func LoadModel(ds *traj.Dataset, path string, cfg Config) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pf, err := nn.ReadParams(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	_, dim, ok := pf.Shape(mrg.InitParam)
	if !ok {
		return nil, fmt.Errorf("core: load %s: %q not in file", path, mrg.InitParam)
	}
	cfg.Dim = dim
	m, err := New(ds, ds.TrainTrips(), cfg)
	if err != nil {
		return nil, err
	}
	if err := pf.Apply(m.AllParams()); err != nil {
		return nil, err
	}
	m.RefreshEmbeddings()
	return m, nil
}

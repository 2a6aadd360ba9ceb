package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TransformerMM [38] replaces the recurrent seq2seq with a small
// transformer: a single-head scaled-dot-product self-attention encoder
// over the tower sequence and a causally-masked decoder with cross
// attention, both with RMS-normalized residual blocks.
type transformerMM struct {
	cfg      Seq2SeqConfig
	net      *roadnet.Network
	numRoads int

	towerEmb *nn.Embedding
	roadEmb  *nn.Embedding

	// Encoder block.
	encQ, encK, encV *nn.Param
	encFF            *nn.MLP
	// Decoder block.
	decQ, decK, decV *nn.Param // causal self-attention
	xQ, xK, xV       *nn.Param // cross attention
	decFF            *nn.MLP
	out              *nn.Linear
}

func (t *transformerMM) eosClass() int { return t.numRoads }
func (t *transformerMM) bosRow() int   { return t.numRoads }

// NewTransformerMM builds and trains TransformerMM on the training
// trips.
func NewTransformerMM(net *roadnet.Network, numTowers int, trips []*traj.Trip, cfg Seq2SeqConfig) (Method, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 300))
	d := cfg.Dim
	v := net.NumSegments()
	t := &transformerMM{
		cfg:      cfg,
		net:      net,
		numRoads: v,
		towerEmb: nn.NewEmbedding("tf.towerEmb", numTowers, d, rng),
		roadEmb:  nn.NewEmbedding("tf.roadEmb", v+1, d, rng),
		encQ:     nn.NewParam("tf.encQ", d, d, rng),
		encK:     nn.NewParam("tf.encK", d, d, rng),
		encV:     nn.NewParam("tf.encV", d, d, rng),
		encFF:    nn.NewMLP("tf.encFF", []int{d, 2 * d, d}, nn.ActReLU, rng),
		decQ:     nn.NewParam("tf.decQ", d, d, rng),
		decK:     nn.NewParam("tf.decK", d, d, rng),
		decV:     nn.NewParam("tf.decV", d, d, rng),
		xQ:       nn.NewParam("tf.xQ", d, d, rng),
		xK:       nn.NewParam("tf.xK", d, d, rng),
		xV:       nn.NewParam("tf.xV", d, d, rng),
		decFF:    nn.NewMLP("tf.decFF", []int{d, 2 * d, d}, nn.ActReLU, rng),
		out:      nn.NewLinear("tf.out", d, v+1, rng),
	}
	if err := t.train(trips); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *transformerMM) params() []*nn.Param {
	ps := append([]*nn.Param(nil), t.towerEmb.Params()...)
	ps = append(ps, t.roadEmb.Params()...)
	ps = append(ps, t.encQ, t.encK, t.encV, t.decQ, t.decK, t.decV, t.xQ, t.xK, t.xV)
	ps = append(ps, t.encFF.Params()...)
	ps = append(ps, t.decFF.Params()...)
	ps = append(ps, t.out.Params()...)
	return ps
}

// positional returns sinusoidal position encodings for n rows of dim d.
func positional(n, d int) *nn.Mat {
	pe := nn.NewMat(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			angle := float64(i) / math.Pow(10000, float64(2*(j/2))/float64(d))
			if j%2 == 0 {
				pe.Set(i, j, math.Sin(angle))
			} else {
				pe.Set(i, j, math.Cos(angle))
			}
		}
	}
	return pe
}

// attend computes single-head scaled-dot-product attention with an
// optional additive mask (nil for none).
func attend(tp *nn.Tape, q, k, v *nn.T, wq, wk, wv *nn.Param, mask *nn.Mat) *nn.T {
	Q := tp.MatMul(q, tp.Var(wq))
	K := tp.MatMul(k, tp.Var(wk))
	V := tp.MatMul(v, tp.Var(wv))
	scores := tp.Scale(tp.MatMul(Q, tp.Transpose(K)), 1/math.Sqrt(float64(Q.C())))
	if mask != nil {
		scores = tp.Add(scores, tp.Const(mask))
	}
	return tp.MatMul(tp.SoftmaxRows(scores), V)
}

// causalMask returns an n×n upper-triangular -1e9 mask.
func causalMask(n int) *nn.Mat {
	m := nn.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, -1e9)
		}
	}
	return m
}

// encode runs the encoder block over the tower sequence.
func (t *transformerMM) encode(tp *nn.Tape, ct traj.CellTrajectory) *nn.T {
	ids := make([]int, len(ct))
	for i, cp := range ct {
		ids[i] = int(cp.Tower)
	}
	x := tp.Add(t.towerEmb.Forward(tp, ids), tp.Const(positional(len(ct), t.cfg.Dim)))
	att := attend(tp, x, x, x, t.encQ, t.encK, t.encV, nil)
	x = tp.RMSNorm(tp.Add(x, att), 1e-6)
	ff := t.encFF.Forward(tp, x)
	return tp.RMSNorm(tp.Add(x, ff), 1e-6)
}

// decode runs the decoder block over the (BOS-prefixed) target rows and
// returns per-position logits.
func (t *transformerMM) decode(tp *nn.Tape, inRows []int, enc *nn.T) *nn.T {
	x := tp.Add(t.roadEmb.Forward(tp, inRows), tp.Const(positional(len(inRows), t.cfg.Dim)))
	self := attend(tp, x, x, x, t.decQ, t.decK, t.decV, causalMask(len(inRows)))
	x = tp.RMSNorm(tp.Add(x, self), 1e-6)
	cross := attend(tp, x, enc, enc, t.xQ, t.xK, t.xV, nil)
	x = tp.RMSNorm(tp.Add(x, cross), 1e-6)
	ff := t.decFF.Forward(tp, x)
	x = tp.RMSNorm(tp.Add(x, ff), 1e-6)
	return t.out.Forward(tp, x)
}

func (t *transformerMM) train(trips []*traj.Trip) error {
	opt := nn.NewAdam()
	opt.LR = seqLR
	params := t.params()
	rng := rand.New(rand.NewSource(t.cfg.Seed + 400))
	for epoch := 0; epoch < t.cfg.Epochs; epoch++ {
		perm := rng.Perm(len(trips))
		for _, ti := range perm {
			tr := trips[ti]
			if len(tr.Cell) < 2 || len(tr.Path) == 0 {
				continue
			}
			target := tr.Path
			if len(target) > t.cfg.MaxTarget {
				target = target[:t.cfg.MaxTarget]
			}
			inRows := make([]int, 0, len(target)+1)
			labels := make([]int, 0, len(target)+1)
			inRows = append(inRows, t.bosRow())
			for _, sid := range target {
				labels = append(labels, int(sid))
				inRows = append(inRows, int(sid))
			}
			labels = append(labels, t.eosClass())
			// Drop the final input row (it has no next label).
			inRows = inRows[:len(labels)]

			tp := nn.NewTape()
			enc := t.encode(tp, tr.Cell)
			logits := t.decode(tp, inRows, enc)
			targetMat := nn.SmoothedTargets(len(labels), t.numRoads+1, labels, 0.05)
			loss := tp.CrossEntropy(logits, targetMat)
			if err := tp.Backward(loss); err != nil {
				return fmt.Errorf("baselines: transformer: %w", err)
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
	return nil
}

func (t *transformerMM) Name() string { return "TransformerMM" }

func (t *transformerMM) Match(ct traj.CellTrajectory) (*Output, error) {
	if len(ct) == 0 {
		return nil, fmt.Errorf("baselines: empty trajectory")
	}
	tp := nn.NewTape()
	enc := t.encode(tp, ct)
	rows := []int{t.bosRow()}
	var path []roadnet.SegmentID
	meanSeg := t.net.TotalLength() / float64(t.net.NumSegments())
	minLen := 1
	if meanSeg > 0 && len(ct) >= 2 {
		span := ct[0].P.Dist(ct[len(ct)-1].P)
		minLen = int(0.6 * span / meanSeg)
		if minLen < 1 {
			minLen = 1
		}
		if minLen > t.cfg.MaxTarget-1 {
			minLen = t.cfg.MaxTarget - 1
		}
	}
	for step := 0; step < t.cfg.MaxTarget; step++ {
		logits := t.decode(tp, rows, enc)
		last := logits.Val.Row(logits.R() - 1)
		best, bestV := 0, math.Inf(-1)
		for j, v := range last {
			if j == t.eosClass() && len(path) < minLen {
				continue
			}
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best == t.eosClass() {
			break
		}
		sid := roadnet.SegmentID(best)
		if len(path) == 0 || path[len(path)-1] != sid {
			path = append(path, sid)
		}
		rows = append(rows, best)
	}
	return &Output{Path: path}, nil
}

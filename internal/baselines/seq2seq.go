package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Seq2SeqConfig parameterizes the seq2seq matchers (DeepMM [37],
// TransformerMM [38] and DMM [15]).
type Seq2SeqConfig struct {
	// Dim is the embedding and hidden size. Default 32.
	Dim int
	// Epochs over the training trips. Default 3.
	Epochs int
	// MaxTarget caps the supervised/decoded path length. Default 90.
	MaxTarget int
	// Seed drives initialization and shuffling.
	Seed int64
}

func (c Seq2SeqConfig) withDefaults() Seq2SeqConfig {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.MaxTarget <= 0 {
		c.MaxTarget = 90
	}
	return c
}

// GRUCell is a gated recurrent unit.
type GRUCell struct {
	Wz, Uz, Wr, Ur, Wh, Uh *nn.Param
	Bz, Br, Bh             *nn.Param
}

// NewGRUCell creates a GRU with input size in and hidden size d.
func NewGRUCell(name string, in, d int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		Wz: nn.NewParam(name+".Wz", in, d, rng),
		Uz: nn.NewParam(name+".Uz", d, d, rng),
		Bz: nn.NewZeroParam(name+".bz", 1, d),
		Wr: nn.NewParam(name+".Wr", in, d, rng),
		Ur: nn.NewParam(name+".Ur", d, d, rng),
		Br: nn.NewZeroParam(name+".br", 1, d),
		Wh: nn.NewParam(name+".Wh", in, d, rng),
		Uh: nn.NewParam(name+".Uh", d, d, rng),
		Bh: nn.NewZeroParam(name+".bh", 1, d),
	}
}

// Params returns the cell parameters.
func (c *GRUCell) Params() []*nn.Param {
	return []*nn.Param{c.Wz, c.Uz, c.Bz, c.Wr, c.Ur, c.Br, c.Wh, c.Uh, c.Bh}
}

// Step advances the hidden state with input x (1×in) and state h (1×d).
func (c *GRUCell) Step(tp *nn.Tape, x, h *nn.T) *nn.T {
	z := tp.Sigmoid(tp.AddRow(tp.Add(tp.MatMul(x, tp.Var(c.Wz)), tp.MatMul(h, tp.Var(c.Uz))), tp.Var(c.Bz)))
	r := tp.Sigmoid(tp.AddRow(tp.Add(tp.MatMul(x, tp.Var(c.Wr)), tp.MatMul(h, tp.Var(c.Ur))), tp.Var(c.Br)))
	rh := tp.Mul(r, h)
	hh := tp.Tanh(tp.AddRow(tp.Add(tp.MatMul(x, tp.Var(c.Wh)), tp.MatMul(rh, tp.Var(c.Uh))), tp.Var(c.Bh)))
	// h' = (1-z)⊙h + z⊙hh
	return tp.Add(tp.Sub(h, tp.Mul(z, h)), tp.Mul(z, hh))
}

// Seq2Seq is the recurrent encoder-decoder DeepMM and DMM share: tower
// sequence in, road sequence out, with additive attention over encoder
// states. The two methods differ only in how they decode it.
type Seq2Seq struct {
	cfg      Seq2SeqConfig
	net      *roadnet.Network
	numRoads int // output classes = numRoads + 1 (EOS)

	towerEmb *nn.Embedding
	roadEmb  *nn.Embedding // numRoads + 2 rows (BOS, EOS)
	enc      *GRUCell
	dec      *GRUCell
	att      *nn.Attention
	out      *nn.Linear // 2d -> numRoads+1
}

func (s *Seq2Seq) eosClass() int { return s.numRoads }
func (s *Seq2Seq) bosRow() int   { return s.numRoads }

func newSeq2Seq(net *roadnet.Network, numTowers int, cfg Seq2SeqConfig) *Seq2Seq {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	d := cfg.Dim
	v := net.NumSegments()
	return &Seq2Seq{
		cfg:      cfg,
		net:      net,
		numRoads: v,
		towerEmb: nn.NewEmbedding("s2s.towerEmb", numTowers, d, rng),
		roadEmb:  nn.NewEmbedding("s2s.roadEmb", v+2, d, rng),
		enc:      NewGRUCell("s2s.enc", d, d, rng),
		dec:      NewGRUCell("s2s.dec", d, d, rng),
		att:      nn.NewAttention("s2s.att", d, d/2+1, rng),
		out:      nn.NewLinear("s2s.out", 2*d, v+1, rng),
	}
}

func (s *Seq2Seq) params() []*nn.Param {
	ps := append([]*nn.Param(nil), s.towerEmb.Params()...)
	ps = append(ps, s.roadEmb.Params()...)
	ps = append(ps, s.enc.Params()...)
	ps = append(ps, s.dec.Params()...)
	ps = append(ps, s.att.Params()...)
	ps = append(ps, s.out.Params()...)
	return ps
}

// encode runs the encoder over the tower sequence, returning all hidden
// states stacked (n×d) and the final state (1×d).
func (s *Seq2Seq) encode(tp *nn.Tape, ct traj.CellTrajectory) (*nn.T, *nn.T) {
	d := s.cfg.Dim
	h := tp.Const(nn.NewMat(1, d))
	states := make([]*nn.T, 0, len(ct))
	for _, cp := range ct {
		x := s.towerEmb.Forward(tp, []int{int(cp.Tower)})
		h = s.enc.Step(tp, x, h)
		states = append(states, h)
	}
	return tp.StackRows(states), h
}

// decodeStep advances the decoder one step: prev is the previous output
// row index in roadEmb, state the decoder state. It returns logits
// (1×numRoads+1) and the next state.
func (s *Seq2Seq) decodeStep(tp *nn.Tape, prevRow int, state, encStates *nn.T) (*nn.T, *nn.T) {
	x := s.roadEmb.Forward(tp, []int{prevRow})
	state = s.dec.Step(tp, x, state)
	ctxT, _ := s.att.Forward(tp, state, encStates, encStates)
	logits := s.out.Forward(tp, tp.ConcatCols(state, ctxT))
	return logits, state
}

// seqLR is the Adam learning rate of every seq2seq matcher.
const seqLR = 1e-3

// train teacher-forces the model on (cellular trajectory →
// ground-truth path) pairs.
func (s *Seq2Seq) train(trips []*traj.Trip) error {
	opt := nn.NewAdam()
	opt.LR = seqLR
	params := s.params()
	rng := rand.New(rand.NewSource(s.cfg.Seed + 200))
	for epoch := 0; epoch < s.cfg.Epochs; epoch++ {
		perm := rng.Perm(len(trips))
		for _, ti := range perm {
			tr := trips[ti]
			if len(tr.Cell) < 2 || len(tr.Path) == 0 {
				continue
			}
			target := tr.Path
			if len(target) > s.cfg.MaxTarget {
				target = target[:s.cfg.MaxTarget]
			}
			tp := nn.NewTape()
			encStates, state := s.encode(tp, tr.Cell)
			var logitRows []*nn.T
			labels := make([]int, 0, len(target)+1)
			prev := s.bosRow()
			for _, sid := range target {
				var logits *nn.T
				logits, state = s.decodeStep(tp, prev, state, encStates)
				logitRows = append(logitRows, logits)
				labels = append(labels, int(sid))
				prev = int(sid)
			}
			// EOS step.
			logits, _ := s.decodeStep(tp, prev, state, encStates)
			logitRows = append(logitRows, logits)
			labels = append(labels, s.eosClass())

			all := tp.StackRows(logitRows)
			targetMat := nn.SmoothedTargets(len(labels), s.numRoads+1, labels, 0.05)
			loss := tp.CrossEntropy(all, targetMat)
			if err := tp.Backward(loss); err != nil {
				return fmt.Errorf("baselines: seq2seq: %w", err)
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
	return nil
}

// minSteps estimates how many road segments a trajectory's journey
// spans, used to suppress the premature-EOS length bias of greedy and
// beam decoding on small training data. The estimate uses the
// start-to-end displacement, which positioning noise inflates far less
// than the sample-to-sample polyline length.
func (s *Seq2Seq) minSteps(ct traj.CellTrajectory) int {
	meanSeg := s.net.TotalLength() / float64(s.net.NumSegments())
	if meanSeg <= 0 || len(ct) < 2 {
		return 1
	}
	// Displacement underestimates loop-shaped trips; the sample
	// polyline overestimates by the positioning noise. Take the larger
	// of displacement and a third of the polyline length.
	span := ct[0].P.Dist(ct[len(ct)-1].P)
	if pl := ct.Positions().Length() / 3; pl > span {
		span = pl
	}
	n := int(0.6 * span / meanSeg)
	if n < 1 {
		n = 1
	}
	if n > s.cfg.MaxTarget-1 {
		n = s.cfg.MaxTarget - 1
	}
	return n
}

// greedyDecode decodes without graph constraints (DeepMM-style).
func (s *Seq2Seq) greedyDecode(ct traj.CellTrajectory) []roadnet.SegmentID {
	tp := nn.NewTape()
	encStates, state := s.encode(tp, ct)
	var path []roadnet.SegmentID
	prev := s.bosRow()
	minLen := s.minSteps(ct)
	for step := 0; step < s.cfg.MaxTarget; step++ {
		var logits *nn.T
		logits, state = s.decodeStep(tp, prev, state, encStates)
		best, bestV := 0, math.Inf(-1)
		for j, v := range logits.Val.W {
			if j == s.eosClass() && len(path) < minLen {
				continue
			}
			if v > bestV {
				best, bestV = j, v
			}
		}
		if best == s.eosClass() {
			break
		}
		sid := roadnet.SegmentID(best)
		if len(path) == 0 || path[len(path)-1] != sid {
			path = append(path, sid)
		}
		prev = best
	}
	return path
}

// constrainedDecode restricts each step to road-graph successors of the
// previous road (plus EOS), scores candidates by model logit plus a
// trajectory-closeness reward, and keeps a small beam — DMM's [15]
// graph-constrained decoding with its RL reward approximated by the
// closeness shaping term.
func (s *Seq2Seq) constrainedDecode(ct traj.CellTrajectory, beamWidth int, rewardW float64) []roadnet.SegmentID {
	if beamWidth < 1 {
		beamWidth = 1
	}
	trajGeom := ct.Positions()

	type beam struct {
		prevRow int
		state   *nn.T
		path    []roadnet.SegmentID
		visited map[roadnet.SegmentID]bool
		score   float64
		steps   int
		done    bool
	}
	// isReverse reports whether b is the opposite direction of a (the
	// same street driven backwards) — an immediate U-turn.
	isReverse := func(a, b roadnet.SegmentID) bool {
		sa, sb := s.net.Segment(a), s.net.Segment(b)
		return sa.From == sb.To && sa.To == sb.From
	}
	norm := func(b beam) float64 {
		if b.steps == 0 {
			return b.score
		}
		return b.score / float64(b.steps)
	}
	tp := nn.NewTape()
	encStates, state0 := s.encode(tp, ct)
	minLen := s.minSteps(ct)
	// Bound wandering: a plausible path is at most a few times the
	// displacement estimate.
	maxLen := minLen*3 + 8
	if maxLen > s.cfg.MaxTarget {
		maxLen = s.cfg.MaxTarget
	}
	dest := ct[len(ct)-1].P

	// First step: restrict to segments near the first point.
	first := s.net.SegmentsNear(ct[0].P, 20)
	beams := []beam{{prevRow: s.bosRow(), state: state0}}

	for step := 0; step < maxLen; step++ {
		var next []beam
		for _, b := range beams {
			if b.done {
				next = append(next, b)
				continue
			}
			logits, state := s.decodeStep(tp, b.prevRow, b.state, encStates)
			// Allowed successors: graph continuations that do not
			// revisit a segment or immediately U-turn (reward farming
			// loops otherwise dominate the shaped decode).
			var allowed []roadnet.SegmentID
			if len(b.path) == 0 {
				allowed = first
			} else {
				last := b.path[len(b.path)-1]
				for _, sid := range s.net.Next(last) {
					if b.visited[sid] || isReverse(last, sid) {
						continue
					}
					allowed = append(allowed, sid)
				}
				if len(allowed) == 0 {
					// Dead end: permit the U-turn as a last resort.
					for _, sid := range s.net.Next(last) {
						if !b.visited[sid] {
							allowed = append(allowed, sid)
						}
					}
				}
			}
			type cand struct {
				sid   roadnet.SegmentID
				score float64
				eos   bool
			}
			var cands []cand
			// EOS allowed once the path plausibly covers the journey,
			// with a destination-proximity bonus (the RL reward of the
			// original DMM rewards ending near the trajectory's end).
			if len(b.path) >= minLen {
				eosScore := logits.Val.W[s.eosClass()]
				if rewardW > 0 {
					last := s.net.Segment(b.path[len(b.path)-1])
					d := last.Shape[len(last.Shape)-1].Dist(dest)
					eosScore += rewardW * math.Exp(-d/600)
				}
				cands = append(cands, cand{score: eosScore, eos: true})
			}
			for _, sid := range allowed {
				score := logits.Val.W[int(sid)]
				if rewardW > 0 {
					d := trajGeom.Dist(s.net.Segment(sid).Midpoint())
					score += rewardW * math.Exp(-d/600)
				}
				cands = append(cands, cand{sid: sid, score: score})
			}
			if len(cands) == 0 {
				b.done = true
				next = append(next, b)
				continue
			}
			sort.Slice(cands, func(x, y int) bool { return cands[x].score > cands[y].score })
			take := beamWidth
			if take > len(cands) {
				take = len(cands)
			}
			for _, c := range cands[:take] {
				nb := beam{
					prevRow: b.prevRow,
					state:   b.state,
					path:    b.path,
					visited: b.visited,
					score:   b.score + c.score,
					steps:   b.steps + 1,
					done:    c.eos,
				}
				if !c.eos {
					nb.prevRow = int(c.sid)
					nb.state = state
					nb.path = append(append([]roadnet.SegmentID(nil), b.path...), c.sid)
					nb.visited = make(map[roadnet.SegmentID]bool, len(b.visited)+1)
					for k := range b.visited {
						nb.visited[k] = true
					}
					nb.visited[c.sid] = true
				}
				next = append(next, nb)
			}
		}
		sort.Slice(next, func(x, y int) bool { return norm(next[x]) > norm(next[y]) })
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beams = next
		allDone := true
		for _, b := range beams {
			if !b.done {
				allDone = false
			}
		}
		if allDone {
			break
		}
	}
	best := beams[0]
	for _, b := range beams[1:] {
		if norm(b) > norm(best) {
			best = b
		}
	}
	return best.path
}

// TrainSeq2Seq builds and trains the recurrent seq2seq on the training
// trips, once for both of its decoders (DeepMM and DMM).
func TrainSeq2Seq(net *roadnet.Network, numTowers int, trips []*traj.Trip, cfg Seq2SeqConfig) (*Seq2Seq, error) {
	s := newSeq2Seq(net, numTowers, cfg)
	if err := s.train(trips); err != nil {
		return nil, err
	}
	return s, nil
}

// DeepMM is DeepMM [37]: the model decoded greedily, without graph
// constraints.
func (s *Seq2Seq) DeepMM() Method {
	return &FuncMethod{MethodName: "DeepMM", Fn: func(ct traj.CellTrajectory) (*Output, error) {
		if len(ct) == 0 {
			return nil, fmt.Errorf("baselines: empty trajectory")
		}
		return &Output{Path: s.greedyDecode(ct)}, nil
	}}
}

// DMM is DMM [15]: the model decoded by the graph-constrained beam.
func (s *Seq2Seq) DMM() Method {
	return &FuncMethod{MethodName: "DMM", Fn: func(ct traj.CellTrajectory) (*Output, error) {
		if len(ct) == 0 {
			return nil, fmt.Errorf("baselines: empty trajectory")
		}
		return &Output{Path: s.constrainedDecode(ct, 3, 2.0)}, nil
	}}
}

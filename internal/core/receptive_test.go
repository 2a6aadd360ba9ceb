package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mrg"
	"repro/internal/nn"
	"repro/internal/traj"
)

// eqs45 is the encoder's forward written from Eqs. 4–5 over the graph's
// own adjacency, every node at once: CO, SQ, TP (HetGNN), the merged
// adjacency (HomoGNN), or the MLP head (MLPOnly). It shares no code
// with mrg.Encoder.Field or Forward's gathers, and builds its tape nodes
// in Forward's order, so gradients accumulate in the same order too.
func eqs45(t testing.TB, tp *nn.Tape, m *Model) *nn.T {
	t.Helper()
	enc, g := m.Enc, m.Graph
	h := tp.Var(enc.Init)
	if enc.Mode == mrg.MLPOnly {
		return enc.MLP.Forward(tp, h)
	}
	for l := 0; l < enc.Rounds; l++ {
		var zs []*nn.T
		if enc.Mode == mrg.HomoGNN {
			merged, err := g.Merged()
			if err != nil {
				t.Fatal(err)
			}
			zs = append(zs, tp.SpMM(merged, tp.MatMul(h, tp.Var(enc.WHomo[l]))))
		} else {
			zs = append(zs,
				tp.SpMM(g.CO, tp.MatMul(h, tp.Var(enc.WCO[l]))),
				tp.SpMM(g.SQ, tp.MatMul(h, tp.Var(enc.WSQ[l]))),
				tp.SpMM(g.TP, tp.MatMul(h, tp.Var(enc.WTP[l]))))
		}
		sum := zs[0]
		for _, z := range zs[1:] {
			sum = tp.Add(sum, z)
		}
		agg := tp.MatMul(sum, tp.Var(enc.WAgg[l]))
		self := tp.MatMul(h, tp.Var(enc.W0[l]))
		h = tp.ReLU(tp.Add(agg, self))
	}
	return h
}

// fullGraphBatchLoss is the oracle of the phase-1 step: eqs45 over
// every node, the losses gathering each node's embedding by its id.
func fullGraphBatchLoss(t testing.TB, m *Model, tp *nn.Tape, draws []tripDraw) (*nn.T, int) {
	return m.batchLoss(tp, eqs45(t, tp, m), func(v int) int { return v }, draws)
}

// receptiveBatchLoss is trainImplicit's step: the forward over the rows
// the draws reach.
func receptiveBatchLoss(m *Model, tp *nn.Tape, draws []tripDraw) (*nn.T, int, *mrg.Field) {
	f := m.Enc.Field(m.Graph, m.fieldRows(draws))
	loss, n := m.batchLoss(tp, m.Enc.Forward(tp, f), f.Local, draws)
	return loss, n, f
}

// phase1Fixture is an untrained model over d with its training samples,
// distance scale and fuse nets prepared as Train prepares them, and the
// rng in the state phase 1 starts from.
func phase1Fixture(t testing.TB, d *traj.Dataset, cfg Config) (*Model, []*tripSample, *rand.Rand) {
	t.Helper()
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []*tripSample
	for _, tr := range d.TrainTrips() {
		if s := m.prepareSample(tr); s != nil {
			samples = append(samples, s)
		}
	}
	if len(samples) <= 2*batchTrips {
		t.Fatalf("%d usable trips, want three batches of %d", len(samples), batchTrips)
	}
	m.calibrateDistScale(samples)
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	m.pretrainFuse(rng)
	return m, samples, rng
}

// gradBits snapshots every parameter's gradient (nil reads as zeros)
// and clears it.
func gradBits(ps []*nn.Param) [][]uint64 {
	out := make([][]uint64, len(ps))
	for i, p := range ps {
		out[i] = make([]uint64, len(p.W.W))
		if p.Grad != nil {
			for j, g := range p.Grad.W {
				out[i][j] = math.Float64bits(g)
			}
		}
		p.ZeroGrad()
	}
	return out
}

// TestReceptiveFieldTrainingExact holds phase 1's restricted step to the
// full-graph oracle step bit for bit: for every encoder mode, over three
// consecutive batches with the optimizer stepping between them, the
// loss and every parameter's gradient are Float64bits-equal, and every
// restricted adjacency row is the graph's row mapped back to node ids.
func TestReceptiveFieldTrainingExact(t *testing.T) {
	d := testDataset(t, 14)
	for _, mode := range []mrg.EncoderMode{mrg.HetGNN, mrg.HomoGNN, mrg.MLPOnly} {
		cfg := fastConfig()
		cfg.EncoderMode = mode
		m, samples, rng := phase1Fixture(t, d, cfg)
		params := m.implicitParams()
		opt := nn.NewAdam()
		opt.LR, opt.WeightDecay = adamLR, adamWeightDecay
		perm := rng.Perm(len(samples))
		for b := 0; b < 3; b++ {
			var batch []*tripSample
			for _, si := range perm[b*batchTrips : min((b+1)*batchTrips, len(perm))] {
				batch = append(batch, samples[si])
			}
			draws := m.drawBatch(batch, rng)

			tp := nn.NewTape()
			loss, n, f := receptiveBatchLoss(m, tp, draws)
			if loss == nil {
				t.Fatalf("%v batch %d: no examples", mode, b)
			}
			if err := tp.Backward(loss); err != nil {
				t.Fatal(err)
			}
			got := gradBits(params)

			tp = nn.NewTape()
			wantLoss, wantN := fullGraphBatchLoss(t, m, tp, draws)
			if err := tp.Backward(wantLoss); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(loss.Val.W[0]) != math.Float64bits(wantLoss.Val.W[0]) || n != wantN {
				t.Fatalf("%v batch %d: loss %v over %d, full graph %v over %d", mode, b, loss.Val.W[0], n, wantLoss.Val.W[0], wantN)
			}
			for i, p := range params {
				for j, w := range p.Grad.W {
					if got[i][j] != math.Float64bits(w) {
						t.Fatalf("%v batch %d: %s grad[%d] = %v, full graph %v", mode, b, p.Name, j, math.Float64frombits(got[i][j]), w)
					}
				}
			}
			checkAdjacencyRows(t, m, f)
			if mode == mrg.HetGNN && len(f.Rows(0)) >= m.Graph.NumNodes() {
				t.Errorf("batch %d: the field reads all %d rows", b, m.Graph.NumNodes())
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
}

// checkAdjacencyRows asserts that row i of each round's restricted
// adjacency is the full graph's row of node Rows(l+1)[i]: the same
// values over the same neighbours in the same order.
func checkAdjacencyRows(t *testing.T, m *Model, f *mrg.Field) {
	t.Helper()
	g := m.Graph
	var full []*nn.Sparse
	switch m.Cfg.EncoderMode {
	case mrg.MLPOnly:
		return
	case mrg.HomoGNN:
		merged, err := g.Merged()
		if err != nil {
			t.Fatal(err)
		}
		full = []*nn.Sparse{merged}
	default:
		full = []*nn.Sparse{g.CO, g.SQ, g.TP}
	}
	for l := 0; l < encoderRounds; l++ {
		for r, s := range full {
			a, nodes := f.Adjacency(l, r)
			for i, v := range f.Rows(l + 1) {
				wantC, wantV := s.Row(v)
				var ids []int
				var vals []float64
				if a != nil {
					c, cv := a.Row(i)
					for _, at := range c {
						ids = append(ids, nodes[at])
					}
					vals = cv
				}
				if !slices.Equal(ids, wantC) || !slices.Equal(vals, wantV) {
					t.Fatalf("round %d relation %d node %d: %v %v, graph %v %v", l, r, v, ids, vals, wantC, wantV)
				}
			}
		}
	}
}

// TestPhase1NonFiniteStepErrors: a NaN in an Init row the first batch
// reads makes training fail at that step, before Adam writes NaN into
// every weight.
func TestPhase1NonFiniteStepErrors(t *testing.T) {
	d := testDataset(t, 14)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range d.TrainTrips() {
		if m.prepareSample(tr) != nil {
			// Every point's tower of a trip with examples is in its batch's field.
			m.Enc.Init.W.Row(m.Graph.TowerNode(tr.Cell[0].Tower))[0] = math.NaN()
			break
		}
	}
	// ReLU maps a NaN pre-activation to 0, so the forward may not carry
	// it to the loss; the backward's W_0 product reads the NaN row and
	// carries it to the gradient.
	err = m.fit(d, d.TrainTrips())
	if err == nil || !strings.HasPrefix(err.Error(), "core: phase 1 epoch 1 batch ") ||
		!(strings.HasSuffix(err.Error(), ": non-finite loss") || strings.HasSuffix(err.Error(), ": non-finite gradient norm")) {
		t.Fatalf("fit with a NaN embedding: %v, want a phase 1 non-finite loss or gradient norm error", err)
	}
}

// TestPhase1BatchAllocatesReceptiveField guards the work, not the time,
// of a phase-1 step: one batch's forward and backward over its
// receptive field allocates under a third of what the full-graph pass
// allocates for the same examples. The city is the test city twice as
// wide (4,193 nodes): on the test city itself a batch's field reads 469
// of 1,089 rows and the losses outweigh the encoder, so the guard would
// measure the losses.
func TestPhase1BatchAllocatesReceptiveField(t *testing.T) {
	m, samples, rng := phase1Fixture(t, testDatasetSized(t, 14, 4400), fastConfig())
	draws := m.drawBatch(samples[:batchTrips], rng)
	params := m.implicitParams()
	step := func(loss func(*nn.Tape) *nn.T) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tp := nn.NewTape()
		if err := tp.Backward(loss(tp)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		for _, p := range params {
			p.ZeroGrad()
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	restricted := func(tp *nn.Tape) *nn.T { l, _, _ := receptiveBatchLoss(m, tp, draws); return l }
	full := func(tp *nn.Tape) *nn.T { l, _ := fullGraphBatchLoss(t, m, tp, draws); return l }
	step(full) // allocates the parameters' gradients once
	got, want := step(restricted), step(full)
	t.Logf("phase-1 batch: %d B on the receptive field, %d B on the full graph (%.3f)", got, want, float64(got)/float64(want))
	if 3*got >= want {
		t.Errorf("receptive-field batch allocates %d B, full graph %d B: not under a third", got, want)
	}
}

// TestPhase1StepAllocationCeiling guards the backward half of a phase-1
// step at the benchmark's dimension (128): once the parameters hold
// their gradients, Backward allocates under twice what the step's
// forward allocates. Every node's gradient buffer is one forward value's
// worth; the products' transposes and row gathers fill the rest. A
// gradient buffer per weight use (each attention call's W_q, W_k, W_v,
// each MLP's layers) or an |V|×d buffer for the encoder's Init lookup
// would push it past seven times.
func TestPhase1StepAllocationCeiling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, samples, rng := phase1Fixture(t, testDatasetSized(t, 14, 4400), cfg)
	draws := m.drawBatch(samples[:batchTrips], rng)
	params := m.implicitParams()
	alloc := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var fwd, bwd uint64
	for range 2 { // the first step allocates the parameters' gradients
		var tp *nn.Tape
		var loss *nn.T
		fwd = alloc(func() { tp = nn.NewTape(); loss, _, _ = receptiveBatchLoss(m, tp, draws) })
		bwd = alloc(func() {
			if err := tp.Backward(loss); err != nil {
				t.Fatal(err)
			}
		})
		for _, p := range params {
			p.ZeroGrad()
		}
	}
	t.Logf("phase-1 step: forward %d B, backward %d B (%.2f×)", fwd, bwd, float64(bwd)/float64(fwd))
	if bwd >= 2*fwd {
		t.Errorf("backward allocates %d B, forward %d B: not under twice", bwd, fwd)
	}
}

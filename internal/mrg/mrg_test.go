package mrg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellular"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// testWorld builds a small deterministic city with a handful of trips.
func testWorld(t testing.TB) (*traj.Dataset, []*traj.Trip) {
	t.Helper()
	cfg := synth.DatasetConfig{
		Seed: 42,
		City: synth.CityConfig{
			Name:          "mrg-test",
			HalfSize:      2000,
			BlockSize:     250,
			CoreRadius:    1000,
			NodeJitter:    15,
			EdgeDropCore:  0.05,
			EdgeDropRural: 0.3,
			ArterialEvery: 4,
			TowerCount:    40,
		},
		Trips: synth.TripConfig{
			Count:            15,
			MinLen:           1200,
			MaxLen:           3500,
			GPSInterval:      20,
			GPSNoise:         8,
			CellMeanInterval: 40,
			Serving:          cellular.DefaultServingModel(),
		},
		Preprocess: true,
		Filter:     traj.DefaultFilterConfig(),
	}
	d, err := synth.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.TrainTrips()
}

func TestBuildGraphValidation(t *testing.T) {
	if _, err := BuildGraph(nil, nil, nil); err == nil {
		t.Error("nil networks did not error")
	}
}

func TestBuildGraphStructure(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != d.Cells.NumTowers()+d.Net.NumSegments() {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.CO.NNZ() == 0 {
		t.Error("no co-occurrence edges")
	}
	if g.SQ.NNZ() == 0 {
		t.Error("no sequentiality edges")
	}
	if g.TP.NNZ() == 0 {
		t.Error("no topology edges")
	}
	// Node index mapping disjoint and in range.
	tn := g.TowerNode(cellular.TowerID(3))
	sn := g.SegNode(roadnet.SegmentID(5))
	if tn < 0 || tn >= g.NumTowers {
		t.Errorf("TowerNode = %d", tn)
	}
	if sn < g.NumTowers || sn >= g.NumNodes() {
		t.Errorf("SegNode = %d", sn)
	}
	// Co-occurrence counts positive for every segment on a training
	// trip path paired with its closest tower.
	var anyCo bool
	for _, tr := range trips {
		for _, sid := range tr.Path {
			for _, cp := range tr.Cell {
				if g.CoOccurrence(cp.Tower, sid) > 0 {
					anyCo = true
				}
			}
		}
	}
	if !anyCo {
		t.Error("no positive co-occurrence counts on trip paths")
	}
	// Normalized co-occurrence in [0,1].
	for _, tr := range trips {
		for _, sid := range tr.Path {
			for _, cp := range tr.Cell {
				v := g.CoOccurrenceNorm(cp.Tower, sid)
				if v < 0 || v > 1 {
					t.Fatalf("CoOccurrenceNorm = %v", v)
				}
			}
		}
	}
}

func TestGraphRowsNormalized(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	// Multiplying a ones-vector: every row sums to 1 or 0.
	ones := nn.NewMat(g.NumNodes(), 1)
	ones.Fill(1)
	for _, s := range []*nn.Sparse{g.CO, g.SQ, g.TP} {
		dst := nn.NewMat(g.NumNodes(), 1)
		s.MulInto(dst, ones)
		for i, v := range dst.W {
			if v != 0 && math.Abs(v-1) > 1e-9 {
				t.Fatalf("row %d sums to %v", i, v)
			}
		}
	}
}

func TestEncoderForwardShapes(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, mode := range []EncoderMode{HetGNN, HomoGNN, MLPOnly} {
		enc, err := NewEncoder(g, mode, 8, 2, rng)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		tp := nn.NewTape()
		h := enc.Forward(tp, g)
		if h.R() != g.NumNodes() || h.C() != 8 {
			t.Errorf("%v: embedding shape %d×%d", mode, h.R(), h.C())
		}
		if len(enc.Params()) == 0 {
			t.Errorf("%v: no params", mode)
		}
		if mode.String() == "" {
			t.Error("empty mode name")
		}
	}
	if _, err := NewEncoder(g, HetGNN, 0, 2, rng); err == nil {
		t.Error("zero dim did not error")
	}
}

func TestEncoderGradientsFlow(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, mode := range []EncoderMode{HetGNN, HomoGNN, MLPOnly} {
		enc, err := NewEncoder(g, mode, 6, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		tp := nn.NewTape()
		h := enc.Forward(tp, g)
		loss := tp.SumAll(tp.Mul(h, h))
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		// Every parameter receives some gradient (ReLU may zero a few,
		// but not all).
		var withGrad int
		for _, p := range enc.Params() {
			if p.Grad != nil && p.Grad.MaxAbs() > 0 {
				withGrad++
			}
			p.ZeroGrad()
		}
		if withGrad < len(enc.Params())/2 {
			t.Errorf("%v: only %d/%d params got gradient", mode, withGrad, len(enc.Params()))
		}
	}
}

// The encoder must place co-occurring tower/road pairs closer than
// random pairs after brief contrastive training — the property the
// downstream learners rely on.
func TestEncoderLearnsCoOccurrence(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	enc, err := NewEncoder(g, HetGNN, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Collect positive (co-occurring) pairs and random negatives.
	type pair struct{ a, b int }
	var pos []pair
	for _, tr := range trips {
		for _, sid := range tr.Path {
			for _, cp := range tr.Cell {
				if g.CoOccurrence(cp.Tower, sid) > 0 {
					pos = append(pos, pair{g.TowerNode(cp.Tower), g.SegNode(sid)})
				}
			}
		}
	}
	if len(pos) == 0 {
		t.Skip("no positive pairs in tiny world")
	}
	if len(pos) > 32 {
		pos = pos[:32]
	}
	opt := nn.NewAdam()
	opt.LR = 0.01
	for iter := 0; iter < 80; iter++ {
		tp := nn.NewTape()
		h := enc.Forward(tp, g)
		// Pull positives together, push a random pair apart.
		var loss *nn.T
		for _, pr := range pos[:min(len(pos), 32)] {
			a := tp.Gather(h, []int{pr.a})
			b := tp.Gather(h, []int{pr.b})
			diff := tp.Sub(a, b)
			l := tp.SumAll(tp.Mul(diff, diff))
			na := tp.Gather(h, []int{rng.Intn(g.NumNodes())})
			nb := tp.Gather(h, []int{rng.Intn(g.NumNodes())})
			nd := tp.Sub(na, nb)
			l = tp.Sub(l, tp.Scale(tp.SumAll(tp.Mul(nd, nd)), 0.1))
			if loss == nil {
				loss = l
			} else {
				loss = tp.Add(loss, l)
			}
		}
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		nn.ClipGradNorm(enc.Params(), 5)
		opt.Step(enc.Params())
	}
	// Positive pairs now closer on average than random pairs.
	tp := nn.NewTape()
	h := enc.Forward(tp, g).Val
	distOf := func(a, b int) float64 {
		var s float64
		ra, rb := h.Row(a), h.Row(b)
		for i := range ra {
			s += (ra[i] - rb[i]) * (ra[i] - rb[i])
		}
		return math.Sqrt(s)
	}
	var posSum, negSum float64
	negRng := rand.New(rand.NewSource(4))
	for _, pr := range pos {
		posSum += distOf(pr.a, pr.b)
		negSum += distOf(negRng.Intn(g.NumNodes()), negRng.Intn(g.NumNodes()))
	}
	if posSum >= negSum {
		t.Errorf("co-occurring pairs not closer: pos %v vs neg %v", posSum, negSum)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

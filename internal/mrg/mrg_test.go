package mrg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// eqs45 is the encoder's forward written from Eqs. 4–5 over the graph's
// own adjacency, every node at once: CO, SQ, TP (HetGNN), the merged
// adjacency (HomoGNN), or the MLP head (MLPOnly). It is the oracle of
// Encoder.Forward and shares no code with Field or pick; it builds its
// tape nodes in Forward's order, so gradients accumulate in the same
// order too.
func eqs45(t testing.TB, tp *nn.Tape, enc *Encoder, g *Graph) *nn.T {
	t.Helper()
	h := tp.Var(enc.Init)
	if enc.Mode == MLPOnly {
		return enc.MLP.Forward(tp, h)
	}
	for l := 0; l < enc.Rounds; l++ {
		var zs []*nn.T
		if enc.Mode == HomoGNN {
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

// TestReleaseRelationsKeepsCoOccurrence: releasing drops the three
// adjacencies and the merged edge list, and every count matching reads
// — CoOccurrence, CoOccurrenceNorm and TopCoRoads for every tower and
// segment — is what it was before.
func TestReleaseRelationsKeepsCoOccurrence(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	read := func() []float64 {
		var out []float64
		for tw := 0; tw < g.NumTowers; tw++ {
			id := cellular.TowerID(tw)
			for s := 0; s < g.NumSegs; s++ {
				sid := roadnet.SegmentID(s)
				out = append(out, g.CoOccurrence(id, sid), g.CoOccurrenceNorm(id, sid))
			}
			for _, sid := range g.TopCoRoads(id, g.NumSegs) {
				out = append(out, float64(sid))
			}
		}
		return out
	}
	before := read()
	g.ReleaseRelations()
	if g.CO != nil || g.SQ != nil || g.TP != nil || g.mergedTriples != nil {
		t.Fatal("ReleaseRelations left a relation adjacency or the merged edges")
	}
	if !slices.Equal(read(), before) {
		t.Fatal("ReleaseRelations changed a co-occurrence count or a tower's top roads")
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
		h := eqs45(t, tp, enc, g)
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
		h := eqs45(t, tp, enc, g)
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

// TestReceptiveFieldForwardExact holds the restricted pass to the
// oracle eqs45 bit for bit: for each mode and a few output row sets,
// a loss over those rows has the same value and every parameter the
// same gradient, and every restricted adjacency row is the full
// graph's row — values and column order, mapped back to node ids.
func TestReceptiveFieldForwardExact(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []EncoderMode{HetGNN, HomoGNN, MLPOnly} {
		enc, err := NewEncoder(g, mode, 8, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			seen := map[int]bool{}
			if trial < 4 {
				// Trip towers and path segments, as a training batch picks them.
				for _, tr := range trips[trial : trial+2] {
					for _, cp := range tr.Cell {
						seen[g.TowerNode(cp.Tower)] = true
					}
					for _, sid := range tr.Path {
						seen[g.SegNode(sid)] = true
					}
				}
			} else {
				// Scattered nodes, most of them no neighbour of another.
				for len(seen) < 12 {
					seen[rng.Intn(g.NumNodes())] = true
				}
			}
			var rows []int
			for v := range seen {
				rows = append(rows, v)
			}
			slices.Sort(rows)
			coef := nn.NewMat(len(rows), enc.Dim)
			coef.Xavier(rng)

			f := enc.Field(g, rows)
			checkFieldAdjacency(t, enc, g, f)
			local := make([]int, len(rows))
			for i, v := range rows {
				local[i] = f.Local(v)
			}
			gotLoss, got := lossGrads(t, enc, coef, func(tp *nn.Tape) *nn.T { return tp.Gather(enc.Forward(tp, f), local) })
			wantLoss, want := lossGrads(t, enc, coef, func(tp *nn.Tape) *nn.T { return tp.Gather(eqs45(t, tp, enc, g), rows) })
			checkLossGrads(t, fmt.Sprintf("%v trial %d", mode, trial), enc, gotLoss, wantLoss, got, want)
			if mode != MLPOnly && len(f.Rows(0)) >= g.NumNodes() {
				t.Errorf("%v trial %d: the field reads all %d rows", mode, trial, g.NumNodes())
			}
		}
	}
}

// lossGrads runs Σ h∘coef over the rows a forward returns and its
// backward, and returns the loss and every encoder parameter's gradient
// (nil for a parameter the pass did not reach), clearing them.
func lossGrads(t *testing.T, enc *Encoder, coef *nn.Mat, forward func(*nn.Tape) *nn.T) (float64, map[string][]float64) {
	t.Helper()
	tp := nn.NewTape()
	loss := tp.SumAll(tp.Mul(forward(tp), tp.Const(coef)))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	grads := map[string][]float64{}
	for _, p := range enc.Params() {
		if p.Grad != nil {
			grads[p.Name] = append([]float64(nil), p.Grad.W...)
		}
		p.ZeroGrad()
	}
	return loss.Val.W[0], grads
}

// checkLossGrads asserts Float64bits equality of two lossGrads results;
// a gradient missing on the got side reads as zeros.
func checkLossGrads(t *testing.T, what string, enc *Encoder, gotLoss, wantLoss float64, got, want map[string][]float64) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: loss %v, Eqs. 4–5 %v", what, gotLoss, wantLoss)
	}
	for _, p := range enc.Params() {
		for i, w := range want[p.Name] {
			var v float64
			if got[p.Name] != nil {
				v = got[p.Name][i]
			}
			if math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: %s grad[%d] = %v, Eqs. 4–5 %v", what, p.Name, i, v, w)
			}
		}
	}
}

// TestAllNodesFieldExact holds the every-node field — the pass
// RefreshEmbeddings runs — to the oracle eqs45 bit for bit in every
// mode: the |V|×d output, a loss over it and every gradient. Its
// adjacencies are the graph's rows, and for HetGNN each relation reads
// only its in-neighbour columns, CO and SQ fewer than every node.
func TestAllNodesFieldExact(t *testing.T) {
	d, trips := testWorld(t)
	g, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, mode := range []EncoderMode{HetGNN, HomoGNN, MLPOnly} {
		enc, err := NewEncoder(g, mode, 8, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := enc.Field(g, nil)
		checkFieldAdjacency(t, enc, g, f)
		if out := f.Rows(len(f.rounds)); len(out) != g.NumNodes() || f.Local(g.NumNodes()-1) != g.NumNodes()-1 {
			t.Fatalf("%v: every-node field outputs %d of %d rows", mode, len(out), g.NumNodes())
		}
		got := enc.Forward(nn.NewTape(), f).Val
		want := eqs45(t, nn.NewTape(), enc, g).Val
		if got.R != want.R || got.C != want.C {
			t.Fatalf("%v: output %d×%d, Eqs. 4–5 %d×%d", mode, got.R, got.C, want.R, want.C)
		}
		for i, w := range want.W {
			if math.Float64bits(got.W[i]) != math.Float64bits(w) {
				t.Fatalf("%v: output[%d] = %v, Eqs. 4–5 %v", mode, i, got.W[i], w)
			}
		}
		coef := nn.NewMat(g.NumNodes(), enc.Dim)
		coef.Xavier(rng)
		gotLoss, gotG := lossGrads(t, enc, coef, func(tp *nn.Tape) *nn.T { return enc.Forward(tp, f) })
		wantLoss, wantG := lossGrads(t, enc, coef, func(tp *nn.Tape) *nn.T { return eqs45(t, tp, enc, g) })
		checkLossGrads(t, mode.String(), enc, gotLoss, wantLoss, gotG, wantG)
		if mode == HetGNN {
			for l := range f.rounds {
				for r := 0; r < 2; r++ { // CO, SQ: the training trips' footprint
					if _, nodes := f.Adjacency(l, r); len(nodes) >= g.NumNodes() {
						t.Errorf("round %d relation %d reads all %d rows", l, r, g.NumNodes())
					}
				}
			}
		}
	}
}

// TestEmbedMatchesForward holds the tape-free pass to the tape one bit
// for bit in every mode, at a dimension the AVX2 product kernel takes
// (8) and one it refuses (6), over the paper's two rounds and three: on the every-node field, on a phase-1
// field (two trips' towers and path segments) and on those towers
// alone, which have no TP in-neighbours; over the test graph and over a
// graph without trips, whose CO and SQ relations are empty (there the
// towers have no in-neighbour at all); and with Init rows of −0, NaN
// and ±Inf among the rows every field reads. Embed must leave Init as it
// was.
func TestEmbedMatchesForward(t *testing.T) {
	d, trips := testWorld(t)
	full, err := BuildGraph(d.Net, d.Cells, trips)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := BuildGraph(d.Net, d.Cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare.CO.NNZ() != 0 || bare.SQ.NNZ() != 0 {
		t.Fatalf("graph without trips has %d CO and %d SQ entries", bare.CO.NNZ(), bare.SQ.NNZ())
	}
	seen := map[int]bool{}
	for _, tr := range trips[:2] {
		for _, cp := range tr.Cell {
			seen[full.TowerNode(cp.Tower)] = true
		}
		for _, sid := range tr.Path {
			seen[full.SegNode(sid)] = true
		}
	}
	var rows, towers []int
	for v := range seen {
		rows = append(rows, v)
	}
	slices.Sort(rows)
	for _, v := range rows {
		if v < full.NumTowers {
			towers = append(towers, v)
		}
	}
	special := []int{rows[0], rows[1], rows[len(rows)/2], rows[len(rows)-1]}

	rng := rand.New(rand.NewSource(7))
	for _, g := range []*Graph{full, bare} {
		for _, mode := range []EncoderMode{HetGNN, HomoGNN, MLPOnly} {
			for _, shape := range [][2]int{{8, 2}, {6, 2}, {8, 3}} {
				enc, err := NewEncoder(g, mode, shape[0], shape[1], rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, odd := range []bool{false, true} {
					if odd {
						init := enc.Init.W
						for j := range init.Row(special[0]) {
							init.Set(special[0], j, math.Copysign(0, -1))
						}
						init.Set(special[1], 3, math.NaN())
						init.Set(special[2], 0, math.Inf(1))
						init.Set(special[3], 5, math.Inf(-1))
					}
					for _, out := range [][]int{nil, rows, towers} {
						what := fmt.Sprintf("%v dim %d rounds %d, %d CO entries, odd Init %v, %d output rows",
							mode, shape[0], shape[1], g.CO.NNZ(), odd, len(out))
						checkEmbed(t, what, enc, enc.Field(g, out))
					}
				}
			}
		}
	}
}

// checkEmbed asserts that Embed over f equals Forward over f bit for
// bit and leaves Init as it was.
func checkEmbed(t *testing.T, what string, enc *Encoder, f *Field) {
	t.Helper()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	before := slices.Clone(enc.Init.W.W)
	got := enc.Embed(f)
	if !slices.EqualFunc(before, enc.Init.W.W, bits) {
		t.Fatalf("%s: Embed wrote Init", what)
	}
	want := enc.Forward(nn.NewTape(), f).Val
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: Embed %d×%d, Forward %d×%d", what, got.R, got.C, want.R, want.C)
	}
	for i, w := range want.W {
		if !bits(got.W[i], w) {
			t.Fatalf("%s: Embed[%d] = %v (%#x), Forward %v (%#x)", what, i, got.W[i], math.Float64bits(got.W[i]), w, math.Float64bits(w))
		}
	}
}

// checkFieldAdjacency asserts that every row of every restricted
// adjacency in f is the full graph's row, read through the column node
// ids.
func checkFieldAdjacency(t *testing.T, enc *Encoder, g *Graph, f *Field) {
	t.Helper()
	rels := enc.relations(g)
	for l := range f.rounds {
		for r, full := range rels {
			a, nodes := f.Adjacency(l, r)
			if a == nil {
				if c := full.Cols(f.Rows(l + 1)); len(c) != 0 {
					t.Fatalf("round %d relation %d: no adjacency for rows with %d in-neighbours", l, r, len(c))
				}
				continue
			}
			for i, v := range f.Rows(l + 1) {
				wantC, wantV := full.Row(v)
				c, vals := a.Row(i)
				ids := make([]int, len(c))
				for k, at := range c {
					ids[k] = nodes[at]
				}
				if !slices.Equal(ids, wantC) || !slices.Equal(vals, wantV) {
					t.Fatalf("round %d relation %d node %d: row %v %v, graph %v %v", l, r, v, ids, vals, wantC, wantV)
				}
			}
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
		h := eqs45(t, tp, enc, g)
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
	h := eqs45(t, tp, enc, g).Val
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

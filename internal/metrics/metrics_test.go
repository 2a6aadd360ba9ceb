package metrics

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// lineWorld builds a single east-west street of n 100 m segments
// (one-way, left to right), returning the network and segment ids.
func lineWorld(t testing.TB, n int) (*roadnet.Network, []roadnet.SegmentID) {
	t.Helper()
	var b roadnet.Builder
	nodes := make([]roadnet.NodeID, n+1)
	for i := range nodes {
		nodes[i] = b.AddNode(geo.Pt(float64(i)*100, 0))
	}
	ids := make([]roadnet.SegmentID, n)
	for i := 0; i < n; i++ {
		sid, err := b.AddSegment(nodes[i], nodes[i+1], roadnet.Local)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sid
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, ids
}

func TestEvalPathPerfectMatch(t *testing.T) {
	net, ids := lineWorld(t, 5)
	m := EvalPath(net, ids, ids, 50)
	if m.Precision != 1 || m.Recall != 1 || m.RMF != 0 || m.CMF != 0 {
		t.Errorf("perfect match metrics = %+v", m)
	}
}

func TestEvalPathPartial(t *testing.T) {
	net, ids := lineWorld(t, 4)
	// Match covers the first half only.
	m := EvalPath(net, ids[:2], ids, 50)
	if m.Precision != 1 {
		t.Errorf("Precision = %v, want 1 (no redundant)", m.Precision)
	}
	if m.Recall != 0.5 {
		t.Errorf("Recall = %v, want 0.5", m.Recall)
	}
	if m.RMF != 0.5 { // 200 m missing / 400 m truth
		t.Errorf("RMF = %v, want 0.5", m.RMF)
	}
	// Half the truth corridor uncovered (uncovered fraction ≈ 0.5 less
	// the 50 m corridor spillover at the boundary).
	if m.CMF < 0.3 || m.CMF > 0.5 {
		t.Errorf("CMF = %v, want ≈0.4", m.CMF)
	}
}

func TestEvalPathRedundant(t *testing.T) {
	net, ids := lineWorld(t, 6)
	// Truth is the middle two segments; match covers all six.
	truth := ids[2:4]
	m := EvalPath(net, ids, truth, 50)
	if math.Abs(m.Precision-2.0/6.0) > 1e-12 {
		t.Errorf("Precision = %v, want 1/3", m.Precision)
	}
	if m.Recall != 1 {
		t.Errorf("Recall = %v, want 1", m.Recall)
	}
	// Redundant 400 m / truth 200 m.
	if math.Abs(m.RMF-2) > 1e-12 {
		t.Errorf("RMF = %v, want 2", m.RMF)
	}
	if m.CMF != 0 {
		t.Errorf("CMF = %v, want 0 (truth fully covered)", m.CMF)
	}
}

func TestEvalPathDuplicatesCountedOnce(t *testing.T) {
	net, ids := lineWorld(t, 3)
	dup := []roadnet.SegmentID{ids[0], ids[0], ids[1], ids[1]}
	m := EvalPath(net, dup, ids, 50)
	want := EvalPath(net, ids[:2], ids, 50)
	// The accuracy metrics; the shape ones count every entry by design.
	accuracy := func(p PathMetrics) [4]float64 { return [4]float64{p.Precision, p.Recall, p.RMF, p.CMF} }
	if accuracy(m) != accuracy(want) {
		t.Errorf("duplicate handling: %+v vs %+v", m, want)
	}
}

func TestEvalPathEmptyMatch(t *testing.T) {
	net, ids := lineWorld(t, 3)
	m := EvalPath(net, nil, ids, 50)
	if m.Precision != 0 || m.Recall != 0 || m.CMF != 1 || m.RMF != 1 {
		t.Errorf("empty match metrics = %+v", m)
	}
}

func TestCMFParallelRoad(t *testing.T) {
	// A matched path on a parallel street 30 m away: segment-level
	// metrics fail it, corridor-level (CMF50) passes it — the paper's
	// motivation for CMF.
	var b roadnet.Builder
	a0 := b.AddNode(geo.Pt(0, 0))
	a1 := b.AddNode(geo.Pt(400, 0))
	c0 := b.AddNode(geo.Pt(0, 30))
	c1 := b.AddNode(geo.Pt(400, 30))
	truthSeg, err := b.AddSegment(a0, a1, roadnet.Local)
	if err != nil {
		t.Fatal(err)
	}
	parallelSeg, err := b.AddSegment(c0, c1, roadnet.Local)
	if err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := EvalPath(net, []roadnet.SegmentID{parallelSeg}, []roadnet.SegmentID{truthSeg}, 50)
	if m.Precision != 0 || m.Recall != 0 {
		t.Errorf("segment metrics should fail: %+v", m)
	}
	if m.CMF != 0 {
		t.Errorf("CMF50 = %v, want 0 for a 30 m parallel road", m.CMF)
	}
	// With a 20 m corridor it fails again.
	m20 := EvalPath(net, []roadnet.SegmentID{parallelSeg}, []roadnet.SegmentID{truthSeg}, 20)
	if m20.CMF < 0.9 {
		t.Errorf("CMF20 = %v, want ≈1", m20.CMF)
	}
}

func TestHittingRatio(t *testing.T) {
	_, ids := lineWorld(t, 4)
	truth := ids
	cands := [][]roadnet.SegmentID{
		{ids[0], ids[1]}, // hit
		{ids[3]},         // hit
		{999, 1000},      // miss (bogus ids not in truth)
		{ids[2], 999},    // hit
	}
	if hr := HittingRatio(cands, truth); hr != 0.75 {
		t.Errorf("HittingRatio = %v, want 0.75", hr)
	}
	if hr := HittingRatio(nil, truth); hr != 0 {
		t.Errorf("empty HittingRatio = %v", hr)
	}
}

func TestAccum(t *testing.T) {
	var a Accum
	a.Add(PathMetrics{Precision: 0.4, Recall: 0.6, RMF: 1.0, CMF: 0.2})
	a.Add(PathMetrics{Precision: 0.6, Recall: 0.8, RMF: 0.5, CMF: 0.1})
	a.AddHR(0.9)
	a.AddTime(0.02)
	a.AddTime(0.04)
	s := a.Summary()
	if s.Trips != 2 {
		t.Errorf("Trips = %d", s.Trips)
	}
	if math.Abs(s.Precision-0.5) > 1e-12 || math.Abs(s.Recall-0.7) > 1e-12 {
		t.Errorf("means wrong: %+v", s)
	}
	if math.Abs(s.RMF-0.75) > 1e-12 || math.Abs(s.CMF-0.15) > 1e-9 {
		t.Errorf("means wrong: %+v", s)
	}
	if s.HR != 0.9 {
		t.Errorf("HR = %v", s.HR)
	}
	if math.Abs(s.AvgTimeS-0.03) > 1e-12 {
		t.Errorf("AvgTimeS = %v", s.AvgTimeS)
	}
	var empty Accum
	es := empty.Summary()
	if es.Trips != 0 || !math.IsNaN(es.HR) {
		t.Errorf("empty summary = %+v", es)
	}
}

func TestPathGeometry(t *testing.T) {
	net, ids := lineWorld(t, 3)
	pl := PathGeometry(net, ids)
	if math.Abs(pl.Length()-300) > 1e-9 {
		t.Errorf("geometry length = %v", pl.Length())
	}
	if len(PathGeometry(net, nil)) != 0 {
		t.Error("empty path produced geometry")
	}
}

// TestPathShape: a hand-built path with one U-turn (B, then its reverse
// B') and one revisit (A again at the end) reports exactly those, its
// travelled length over the truth's, and keeps counting duplicates once
// in the accuracy metrics; Accum averages the shape per trip.
func TestPathShape(t *testing.T) {
	var b roadnet.Builder
	n0, n1 := b.AddNode(geo.Pt(0, 0)), b.AddNode(geo.Pt(100, 0))
	n2, n3 := b.AddNode(geo.Pt(200, 0)), b.AddNode(geo.Pt(100, 100))
	seg := func(from, to roadnet.NodeID) roadnet.SegmentID {
		sid, err := b.AddSegment(from, to, roadnet.Local)
		if err != nil {
			t.Fatal(err)
		}
		return sid
	}
	A, B, Br, C, D := seg(n0, n1), seg(n1, n2), seg(n2, n1), seg(n1, n3), seg(n3, n0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	matched := []roadnet.SegmentID{A, B, Br, C, D, A}
	truth := []roadnet.SegmentID{A, B}
	m := EvalPath(net, matched, truth, 50)
	travelled := 500 + 100*math.Sqrt2
	if m.UTurns != 1 {
		t.Errorf("UTurns = %d, want 1", m.UTurns)
	}
	if m.Revisits != 1.0/6 {
		t.Errorf("Revisits = %v, want 1/6", m.Revisits)
	}
	if math.Abs(m.LengthRatio-travelled/200) > 1e-9 {
		t.Errorf("LengthRatio = %v, want %v", m.LengthRatio, travelled/200)
	}
	if want := 200 / (travelled - 100); math.Abs(m.Precision-want) > 1e-9 || m.Recall != 1 {
		t.Errorf("Precision %v Recall %v, want %v and 1 (duplicates counted once)", m.Precision, m.Recall, want)
	}
	straight := EvalPath(net, truth, truth, 50)
	if straight.UTurns != 0 || straight.Revisits != 0 || straight.LengthRatio != 1 {
		t.Errorf("truth against itself: %+v", straight)
	}
	var acc Accum
	acc.Add(m)
	acc.Add(straight)
	if s := acc.Summary(); s.UTurns != 0.5 || s.Revisits != 1.0/12 || math.Abs(s.LengthRatio-(travelled/200+1)/2) > 1e-9 {
		t.Errorf("Summary shape = %v U-turns, %v revisits, %v length ratio", s.UTurns, s.Revisits, s.LengthRatio)
	}
}

// TestEvalPathOrderFree: RMF's missing length is summed in path order,
// not in a map's, so one pair of paths gives one set of bits however
// often it is evaluated.
func TestEvalPathOrderFree(t *testing.T) {
	var b roadnet.Builder
	prev, x := b.AddNode(geo.Pt(0, 0)), 0.0
	var ids []roadnet.SegmentID
	for i := 0; i < 40; i++ {
		x += 100 + math.Pi*float64(i*i%17) // lengths whose sums round differently by order
		next := b.AddNode(geo.Pt(x, 0))
		sid, err := b.AddSegment(prev, next, roadnet.Local)
		if err != nil {
			t.Fatal(err)
		}
		ids, prev = append(ids, sid), next
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := EvalPath(net, ids[:3], ids, 50)
	for i := 0; i < 50; i++ {
		if got := EvalPath(net, ids[:3], ids, 50); math.Float64bits(got.RMF) != math.Float64bits(want.RMF) {
			t.Fatalf("RMF %v, then %v", want.RMF, got.RMF)
		}
	}
}

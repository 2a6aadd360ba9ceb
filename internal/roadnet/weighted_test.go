package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

func TestShortestPathWeightedMatchesRouter(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	rng := rand.New(rand.NewSource(1))
	lengthWeight := func(s *Segment) float64 { return s.Length }
	for trial := 0; trial < 100; trial++ {
		a := NodeID(rng.Intn(25))
		b := NodeID(rng.Intn(25))
		_, d1, ok1 := n.ShortestPathWeighted(a, b, lengthWeight)
		d2, ok2 := r.NodeDist(a, b)
		if ok1 != ok2 {
			t.Fatalf("reachability mismatch %d->%d", a, b)
		}
		if ok1 && math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("distance mismatch %d->%d: %v vs %v", a, b, d1, d2)
		}
	}
}

func TestShortestPathWeightedCustomWeights(t *testing.T) {
	// Two routes from 0 to 3: direct long segment vs two short ones.
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 100))
	n3 := b.AddNode(geo.Pt(200, 0))
	direct, err := b.AddSegment(n0, n3, Local)
	if err != nil {
		t.Fatal(err)
	}
	up, err := b.AddSegment(n0, n1, Local)
	if err != nil {
		t.Fatal(err)
	}
	down, err := b.AddSegment(n1, n3, Local)
	if err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// By length the direct segment wins.
	path, _, ok := net.ShortestPathWeighted(n0, n3, func(s *Segment) float64 { return s.Length })
	if !ok || len(path) != 1 || path[0] != direct {
		t.Fatalf("length-weight path = %v", path)
	}
	// Penalize the direct segment and the detour wins.
	path, _, ok = net.ShortestPathWeighted(n0, n3, func(s *Segment) float64 {
		if s.ID == direct {
			return s.Length * 10
		}
		return s.Length
	})
	if !ok || len(path) != 2 || path[0] != up || path[1] != down {
		t.Fatalf("penalized path = %v", path)
	}
	// Negative weight skips the edge entirely.
	_, _, ok = net.ShortestPathWeighted(n0, n1, func(s *Segment) float64 { return -1 })
	if ok {
		t.Error("all-negative weights still found a path")
	}
	// Self route.
	if p, d, ok := net.ShortestPathWeighted(n0, n0, func(s *Segment) float64 { return s.Length }); !ok || d != 0 || p != nil {
		t.Errorf("self route = %v %v %v", p, d, ok)
	}
}

func TestLargestComponent(t *testing.T) {
	var b Builder
	// Component A: 3 nodes in a line. Component B: 2 nodes.
	a0 := b.AddNode(geo.Pt(0, 0))
	a1 := b.AddNode(geo.Pt(100, 0))
	a2 := b.AddNode(geo.Pt(200, 0))
	b0 := b.AddNode(geo.Pt(9000, 9000))
	b1 := b.AddNode(geo.Pt(9100, 9000))
	for _, pair := range [][2]NodeID{{a0, a1}, {a1, a2}, {b0, b1}} {
		if _, _, err := b.AddTwoWay(pair[0], pair[1], Local); err != nil {
			t.Fatal(err)
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	comp := n.LargestComponent()
	if len(comp) != 3 {
		t.Fatalf("LargestComponent size = %d, want 3", len(comp))
	}
	in := map[NodeID]bool{}
	for _, id := range comp {
		in[id] = true
	}
	if !in[a0] || !in[a1] || !in[a2] {
		t.Errorf("LargestComponent = %v", comp)
	}
}

// Unreachable targets: directed dead ends and disconnected nodes must
// report ok=false, not a bogus path.
func TestShortestPathWeightedUnreachable(t *testing.T) {
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	n2 := b.AddNode(geo.Pt(200, 0))
	n3 := b.AddNode(geo.Pt(0, 500)) // disconnected entirely
	if _, err := b.AddSegment(n0, n1, Local); err != nil {
		t.Fatal(err)
	}
	// n2 -> n1 only: n2 is reachable from nowhere, and n1 cannot reach n2.
	if _, err := b.AddSegment(n2, n1, Local); err != nil {
		t.Fatal(err)
	}
	// Give n3 an outgoing edge so the network builder keeps it routable
	// in one direction only.
	if _, err := b.AddSegment(n3, n0, Local); err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	length := func(s *Segment) float64 { return s.Length }
	for _, c := range []struct{ from, to NodeID }{
		{n0, n2}, // against the n2->n1 one-way
		{n1, n0}, // against the n0->n1 one-way
		{n0, n3}, // n3 has no incoming edges
		{n1, n3},
	} {
		if path, d, ok := n.ShortestPathWeighted(c.from, c.to, length); ok {
			t.Errorf("%d->%d: want unreachable, got path %v (d=%v)", c.from, c.to, path, d)
		}
	}
	// Sanity: the edges that do exist still route.
	if _, _, ok := n.ShortestPathWeighted(n3, n1, length); !ok {
		t.Error("n3->n1 should be reachable via n0")
	}
}

// Zero-length segments (overlapping nodes) are legal: they contribute
// zero weight but must still appear in the returned path.
func TestShortestPathWeightedZeroLengthSegments(t *testing.T) {
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(0, 0)) // same position: zero-length hop
	n2 := b.AddNode(geo.Pt(100, 0))
	s01, err := b.AddSegment(n0, n1, Local)
	if err != nil {
		t.Fatal(err)
	}
	s12, err := b.AddSegment(n1, n2, Local)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path, d, ok := n.ShortestPathWeighted(n0, n2, func(s *Segment) float64 { return s.Length })
	if !ok {
		t.Fatal("n0->n2 unreachable")
	}
	if len(path) != 2 || path[0] != s01 || path[1] != s12 {
		t.Fatalf("path = %v, want [%d %d]", path, s01, s12)
	}
	if d != 100 {
		t.Fatalf("d = %v, want 100", d)
	}
}

// Duplicate parallel segments between the same node pair: the search
// must take the cheaper one under the supplied weight, even when that
// inverts the geometric order.
func TestShortestPathWeightedParallelSegments(t *testing.T) {
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	short, err := b.AddSegment(n0, n1, Local)
	if err != nil {
		t.Fatal(err)
	}
	long, err := b.AddSegment(n0, n1, Local, geo.Pt(50, 200)) // detour shape
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path, _, ok := n.ShortestPathWeighted(n0, n1, func(s *Segment) float64 { return s.Length })
	if !ok || len(path) != 1 || path[0] != short {
		t.Fatalf("by length: path = %v (ok=%v), want [%d]", path, ok, short)
	}
	// Invert the preference: make the geometrically long segment cheap.
	path, d, ok := n.ShortestPathWeighted(n0, n1, func(s *Segment) float64 {
		if s.ID == long {
			return 1
		}
		return s.Length
	})
	if !ok || len(path) != 1 || path[0] != long {
		t.Fatalf("by custom weight: path = %v (ok=%v), want [%d]", path, ok, long)
	}
	if d != 1 {
		t.Fatalf("custom-weight d = %v, want 1", d)
	}
}

// refWeightedPQ is ShortestPathWeighted's queue as a container/heap
// heap.Interface, the form the search had before pq's typed push and
// pop.
type refWeightedPQ []pqItem

func (q refWeightedPQ) Len() int            { return len(q) }
func (q refWeightedPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refWeightedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refWeightedPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refWeightedPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refShortestPathWeighted is ShortestPathWeighted with its search state
// in maps, map presence standing for a reached node, and its queue in
// container/heap: the reference the slice-backed search must match call
// for call.
func refShortestPathWeighted(n *Network, from, to NodeID, weight func(*Segment) float64) ([]SegmentID, float64, bool) {
	if from == to {
		return nil, 0, true
	}
	dist := map[NodeID]float64{from: 0}
	parent := map[NodeID]SegmentID{}
	settled := map[NodeID]bool{}
	q := &refWeightedPQ{{from, 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if settled[cur.node] {
			continue
		}
		settled[cur.node] = true
		if cur.node == to {
			break
		}
		for _, sid := range n.Out(cur.node) {
			seg := n.Segment(sid)
			w := weight(seg)
			if !(w >= 0) {
				continue
			}
			nd := cur.dist + w
			if old, ok := dist[seg.To]; !ok || nd < old {
				dist[seg.To] = nd
				parent[seg.To] = sid
				heap.Push(q, pqItem{seg.To, nd})
			}
		}
	}
	d, ok := dist[to]
	if !ok || !settled[to] {
		return nil, 0, false
	}
	var rev []SegmentID
	cur := to
	for cur != from {
		sid, ok := parent[cur]
		if !ok {
			return nil, 0, false
		}
		rev = append(rev, sid)
		cur = n.Segment(sid).From
	}
	path := make([]SegmentID, len(rev))
	for i, s := range rev {
		path[len(rev)-1-i] = s
	}
	return path, d, true
}

// TestShortestPathWeightedMatchesReference holds the search to the
// map-backed reference: the same path, total and ok, and the same
// sequence of weight calls, each segment at most once — the synthetic
// generator draws each segment's noise on its call, so the call order
// is part of the dataset. Weights are the grid's equal lengths (every route ties),
// small integers (ties and zeros), random reals, and random reals with
// some segments negative, NaN or +Inf, which cut the grid into pieces
// and leave pairs unreachable.
func TestShortestPathWeightedMatchesReference(t *testing.T) {
	n := buildGrid(t, 7, 6)
	rng := rand.New(rand.NewSource(11))
	weights := []struct {
		name string
		gen  func() []float64
	}{
		{"length", func() []float64 {
			w := make([]float64, n.NumSegments())
			for i := range w {
				w[i] = n.Segment(SegmentID(i)).Length
			}
			return w
		}},
		{"small-int", func() []float64 {
			w := make([]float64, n.NumSegments())
			for i := range w {
				w[i] = float64(rng.Intn(3))
			}
			return w
		}},
		{"real", func() []float64 {
			w := make([]float64, n.NumSegments())
			for i := range w {
				w[i] = rng.Float64() * 100
			}
			return w
		}},
		{"cut", func() []float64 {
			w := make([]float64, n.NumSegments())
			for i := range w {
				switch rng.Intn(6) {
				case 0:
					w[i] = -1
				case 1:
					w[i] = math.NaN()
				case 2:
					w[i] = math.Inf(1)
				default:
					w[i] = rng.Float64() * 100
				}
			}
			return w
		}},
	}
	var unreachable, self int
	for _, wg := range weights {
		for trial := 0; trial < 60; trial++ {
			w := wg.gen()
			from, to := NodeID(rng.Intn(n.NumNodes())), NodeID(rng.Intn(n.NumNodes()))
			if trial%15 == 0 {
				to = from
			}
			var got, want []SegmentID
			path, d, ok := n.ShortestPathWeighted(from, to, func(s *Segment) float64 { got = append(got, s.ID); return w[s.ID] })
			wantPath, wantD, wantOK := refShortestPathWeighted(n, from, to, func(s *Segment) float64 { want = append(want, s.ID); return w[s.ID] })
			if ok != wantOK || !slices.Equal(path, wantPath) || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("%s trial %d %d->%d: %v %v %v, reference %v %v %v", wg.name, trial, from, to, path, d, ok, wantPath, wantD, wantOK)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d %d->%d: weight calls %v, reference %v", wg.name, trial, from, to, got, want)
			}
			// The generator draws a segment's noise on its call, with no
			// memo: a segment is weighed at most once.
			sorted := slices.Clone(got)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(got) {
				t.Fatalf("%s trial %d %d->%d: a segment weighed twice in %v", wg.name, trial, from, to, got)
			}
			if !ok {
				unreachable++
			}
			if from == to {
				self++
			}
		}
	}
	if unreachable == 0 || self == 0 {
		t.Errorf("%d unreachable and %d self pairs: the cases are not covered", unreachable, self)
	}
}

// TestShortestPathWeightedSkipsNaN: a NaN weight is a bad weight and is
// skipped like a negative one. On the best path it makes the search
// route around the segment, as cutting the segment does; off it, the
// result is the all-finite one.
func TestShortestPathWeightedSkipsNaN(t *testing.T) {
	n := buildGrid(t, 6, 6)
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, n.NumSegments())
	for i := range w {
		w[i] = 50 + rng.Float64()*100 // distinct sums: one best path
	}
	with := func(bad SegmentID, v float64) func(*Segment) float64 {
		return func(s *Segment) float64 {
			if s.ID == bad {
				return v
			}
			return w[s.ID]
		}
	}
	from, to := NodeID(0), NodeID(35)
	best, bestD, ok := n.ShortestPathWeighted(from, to, with(-1, 0))
	if !ok {
		t.Fatal("finite search found no path")
	}
	// The NaN segment leaves the source on the best path.
	on := best[0]
	cut, cutD, _ := n.ShortestPathWeighted(from, to, with(on, -1))
	path, d, ok := n.ShortestPathWeighted(from, to, with(on, math.NaN()))
	if !ok || d != cutD || !slices.Equal(path, cut) || slices.Contains(path, on) {
		t.Fatalf("NaN on the best path: %v %v %v, want %v %v", path, d, ok, cut, cutD)
	}
	// The NaN segment leaves the source off the best path.
	off := n.Out(from)[0]
	if off == on {
		off = n.Out(from)[1]
	}
	path, d, ok = n.ShortestPathWeighted(from, to, with(off, math.NaN()))
	if !ok || d != bestD || !slices.Equal(path, best) {
		t.Fatalf("NaN off the best path: %v %v %v, want %v %v", path, d, ok, best, bestD)
	}
	// Every weight NaN: nothing is reachable.
	if path, d, ok := n.ShortestPathWeighted(from, to, func(*Segment) float64 { return math.NaN() }); ok {
		t.Fatalf("all-NaN weights: %v %v, want no path", path, d)
	}
}

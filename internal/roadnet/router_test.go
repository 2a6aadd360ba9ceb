package roadnet

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
)

func segBetween(t testing.TB, n *Network, from, to NodeID) SegmentID {
	t.Helper()
	for _, sid := range n.Out(from) {
		if n.Segment(sid).To == to {
			return sid
		}
	}
	t.Fatalf("no segment %d->%d", from, to)
	return 0
}

func TestNodeDist(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	// Manhattan distance on the lattice.
	d, ok := r.NodeDist(0, NodeID(4*5+4)) // corner to corner
	if !ok || math.Abs(d-800) > 1e-9 {
		t.Errorf("NodeDist = %v ok=%v, want 800", d, ok)
	}
	if d, ok := r.NodeDist(3, 3); !ok || d != 0 {
		t.Errorf("self NodeDist = %v ok=%v", d, ok)
	}
}

func TestNodePath(t *testing.T) {
	n := buildGrid(t, 3, 3)
	r := NewRouter(n)
	path, d, ok := r.nodePath(0, 8, 0) // (0,0) to (2,2)
	if !ok || math.Abs(d-400) > 1e-9 {
		t.Fatalf("nodePath dist = %v ok=%v", d, ok)
	}
	if len(path) != 4 {
		t.Fatalf("nodePath len = %d, want 4", len(path))
	}
	// Path must be contiguous and start/end correctly.
	if n.Segment(path[0]).From != 0 || n.Segment(path[3]).To != 8 {
		t.Error("path endpoints wrong")
	}
	for i := 1; i < len(path); i++ {
		if n.Segment(path[i-1]).To != n.Segment(path[i]).From {
			t.Error("path not contiguous")
		}
	}
	if p, d, ok := r.nodePath(4, 4, 0); !ok || d != 0 || p != nil {
		t.Errorf("self nodePath = %v %v %v", p, d, ok)
	}
}

func TestMaxDistBound(t *testing.T) {
	n := buildGrid(t, 10, 1)
	r := NewRouter(n, WithMaxDist(250))
	if _, ok := r.NodeDist(0, 9); ok {
		t.Error("distance beyond bound reported reachable")
	}
	if d, ok := r.NodeDist(0, 2); !ok || d != 200 {
		t.Errorf("in-bound NodeDist = %v ok=%v", d, ok)
	}
}

func TestUnreachable(t *testing.T) {
	// Two disconnected components.
	var b Builder
	a0 := b.AddNode(geo.Pt(0, 0))
	a1 := b.AddNode(geo.Pt(100, 0))
	c0 := b.AddNode(geo.Pt(5000, 5000))
	c1 := b.AddNode(geo.Pt(5100, 5000))
	if _, err := b.AddSegment(a0, a1, Local); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(c0, c1, Local); err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(n)
	if _, ok := r.NodeDist(a0, c1); ok {
		t.Error("disconnected nodes reported reachable")
	}
	if _, _, ok := r.nodePath(a0, c1, 0); ok {
		t.Error("disconnected nodePath reported ok")
	}
}

func TestRouteBetweenSameSegment(t *testing.T) {
	n := buildGrid(t, 2, 1)
	fwd := segBetween(t, n, 0, 1)
	r := NewRouter(n)
	route, ok := r.RouteBetween(PointOnRoad{fwd, 0.2}, PointOnRoad{fwd, 0.7})
	if !ok || math.Abs(route.Dist-50) > 1e-9 || len(route.Segs) != 1 {
		t.Errorf("same-segment route = %+v ok=%v", route, ok)
	}
	// Backwards on the same directed segment requires a loop via the
	// reverse segment: 0.2*100 forward to end is wrong — it must go
	// through the network: (1-0.7)*100 + path(To=1 start... ) — in this
	// tiny net: 30 m to node 1, reverse segment 100 m to node 0, then
	// 20 m — total 150.
	route, ok = r.RouteBetween(PointOnRoad{fwd, 0.7}, PointOnRoad{fwd, 0.2})
	if !ok || math.Abs(route.Dist-150) > 1e-9 {
		t.Errorf("backward same-segment route = %+v ok=%v", route, ok)
	}
}

func TestRouteBetweenAdjacent(t *testing.T) {
	n := buildGrid(t, 3, 1)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	r := NewRouter(n)
	route, ok := r.RouteBetween(PointOnRoad{s01, 0.5}, PointOnRoad{s12, 0.5})
	if !ok || math.Abs(route.Dist-100) > 1e-9 {
		t.Fatalf("adjacent route = %+v ok=%v", route, ok)
	}
	if len(route.Segs) != 2 || route.Segs[0] != s01 || route.Segs[1] != s12 {
		t.Errorf("adjacent segs = %v", route.Segs)
	}
}

func TestRouteBetweenFar(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	sA := segBetween(t, n, 0, 1)                   // bottom-left horizontal
	sB := segBetween(t, n, NodeID(23), NodeID(24)) // top-right horizontal
	route, ok := r.RouteBetween(PointOnRoad{sA, 0.5}, PointOnRoad{sB, 0.5})
	if !ok {
		t.Fatal("far route not found")
	}
	// 50 remaining + dist(node1 -> node23) + 50 into sB.
	wantMid, ok2 := r.NodeDist(1, 23)
	if !ok2 {
		t.Fatal("mid dist not found")
	}
	if math.Abs(route.Dist-(50+wantMid+50)) > 1e-9 {
		t.Errorf("route dist = %v, want %v", route.Dist, 50+wantMid+50)
	}
	// Contiguity.
	for i := 1; i < len(route.Segs); i++ {
		if n.Segment(route.Segs[i-1]).To != n.Segment(route.Segs[i]).From {
			t.Fatal("route segments not contiguous")
		}
	}
}

// Property: NodeDist satisfies the triangle inequality through any
// intermediate node and symmetry holds on a two-way lattice.
func TestNodeDistProperties(t *testing.T) {
	n := buildGrid(t, 6, 6)
	r := NewRouter(n)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a := NodeID(rng.Intn(36))
		b := NodeID(rng.Intn(36))
		c := NodeID(rng.Intn(36))
		dab, ok1 := r.NodeDist(a, b)
		dba, ok2 := r.NodeDist(b, a)
		if !ok1 || !ok2 || math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("symmetry broken: %v vs %v", dab, dba)
		}
		dac, _ := r.NodeDist(a, c)
		dcb, _ := r.NodeDist(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle inequality broken: d(%d,%d)=%v > %v+%v", a, b, dab, dac, dcb)
		}
		// Path length equals reported distance.
		path, d, ok := r.nodePath(a, b, 0)
		if !ok || math.Abs(d-dab) > 1e-9 {
			t.Fatalf("nodePath dist %v != NodeDist %v", d, dab)
		}
		var sum float64
		for _, sid := range path {
			sum += n.Segment(sid).Length
		}
		if math.Abs(sum-dab) > 1e-9 {
			t.Fatalf("path segment sum %v != dist %v", sum, dab)
		}
	}
}

func TestRouterCacheEviction(t *testing.T) {
	n := buildGrid(t, 4, 4)
	r := NewRouter(n, WithCacheSize(2))
	for i := 0; i < 10; i++ {
		src := NodeID(i % 4)
		if _, ok := r.NodeDist(src, NodeID(15)); !ok {
			t.Fatalf("query from %d failed", src)
		}
	}
	r.mu.Lock()
	size := len(r.cache)
	r.mu.Unlock()
	if size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", size)
	}
}

// Concurrent cold builds from distinct sources draw their search state
// from one scratch pool; every answer must still equal what a router
// that never shares anything computes. Run under -race in CI.
func TestRouterConcurrent(t *testing.T) {
	n := buildJittered(t, 8, 8, 0.1, 3)
	want := NewRouter(n)
	r := NewRouter(n, WithCacheSize(4)) // 64 sources over 4 slots: mostly cold
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				a := NodeID(rng.Intn(64))
				b := NodeID(rng.Intn(64))
				d, ok := r.NodeDist(a, b)
				path, _, _ := r.nodePath(a, b, 0)
				wd, wok := want.NodeDist(a, b)
				wpath, _, _ := want.nodePath(a, b, 0)
				if ok != wok || d != wd || !slices.Equal(path, wpath) {
					t.Errorf("%d->%d: got %v/%v %v, want %v/%v %v", a, b, d, ok, path, wd, wok, wpath)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestNetworkRoundTrip(t *testing.T) {
	n := buildGrid(t, 3, 2)
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumNodes() != n.NumNodes() || n2.NumSegments() != n.NumSegments() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			n2.NumNodes(), n2.NumSegments(), n.NumNodes(), n.NumSegments())
	}
	for i := 0; i < n.NumSegments(); i++ {
		a, b := n.Segment(SegmentID(i)), n2.Segment(SegmentID(i))
		if a.From != b.From || a.To != b.To || a.Length != b.Length || a.Class != b.Class {
			t.Fatalf("segment %d mismatch after round trip", i)
		}
	}
	if _, err := Read(bytes.NewBufferString("{bad json")); err == nil {
		t.Error("bad JSON did not error")
	}
}

// A search counts as a miss whether it builds a new tree or extends a
// cached one; only a new source's tree evicts.
func TestRouterCacheCounters(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	hits := obs.Default.Counter("router.cache.hits")
	misses := obs.Default.Counter("router.cache.misses")
	evictions := obs.Default.Counter("router.cache.evictions")
	h0, m0, e0 := hits.Value(), misses.Value(), evictions.Value()
	want := func(step string, h, m, e int64) {
		t.Helper()
		if got := hits.Value() - h0; got != h {
			t.Errorf("after %s: hits delta = %d, want %d", step, got, h)
		}
		if got := misses.Value() - m0; got != m {
			t.Errorf("after %s: misses delta = %d, want %d", step, got, m)
		}
		if got := evictions.Value() - e0; got != e {
			t.Errorf("after %s: evictions delta = %d, want %d", step, got, e)
		}
	}

	n := buildGrid(t, 6, 6)
	r := NewRouter(n, WithCacheSize(1))
	r.NodeDist(0, 14) // miss: the tree settles up to node 14, 400 m out
	want("first search", 0, 1, 0)
	r.NodeDist(0, 7) // hit: node 7, 200 m out, was settled on the way
	want("a nearer target", 1, 1, 0)
	r.NodeDist(0, 35) // miss: extends source 0's tree in its own slot
	want("an extension", 1, 2, 0)
	r.NodeDist(0, 14) // hit: the extension kept what the tree had
	want("a target of the old tree", 2, 2, 0)
	r.NodeDist(1, 7) // miss, evicts source 0
	want("a new source", 2, 3, 1)
	r.NodeDist(0, 7) // miss again after eviction
	want("the evicted source", 2, 4, 2)
}

// RouteDist must agree exactly with RouteBetween's Dist on every pair
// shape — same segment, adjacent, multi-hop, unreachable — and stay
// allocation-free once the shortest-path tree is cached.
func TestRouteDistMatchesRouteBetween(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	far := segBetween(t, n, NodeID(23), NodeID(24))
	pairs := [][2]PointOnRoad{
		{{s01, 0.2}, {s01, 0.7}}, // forward same segment
		{{s01, 0.7}, {s01, 0.2}}, // backward same segment (loops)
		{{s01, 0.5}, {s12, 0.5}}, // adjacent
		{{s01, 0.5}, {far, 0.5}}, // multi-hop
	}
	for _, p := range pairs {
		route, okR := r.RouteBetween(p[0], p[1])
		dist, okD := r.RouteDist(p[0], p[1])
		if okR != okD || math.Abs(route.Dist-dist) > 1e-12 {
			t.Errorf("RouteDist(%v,%v) = %g/%v, RouteBetween says %g/%v",
				p[0], p[1], dist, okD, route.Dist, okR)
		}
	}
}

// Warm lookups are allocation-pinned: distances allocate nothing, a
// materialised route allocates exactly its Segs slice.
func TestRouteDistNoAllocs(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	a := PointOnRoad{segBetween(t, n, 0, 1), 0.5}
	b := PointOnRoad{segBetween(t, n, NodeID(23), NodeID(24)), 0.5}
	if _, ok := r.RouteDist(a, b); !ok { // warm the tree cache
		t.Fatal("unreachable")
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.RouteDist(a, b) }); allocs != 0 {
		t.Errorf("warm RouteDist allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.NodeDist(1, 23) }); allocs != 0 {
		t.Errorf("warm NodeDist allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.RouteBetween(a, b) }); allocs != 1 {
		t.Errorf("warm RouteBetween allocates %.1f/op, want 1 (the Segs slice)", allocs)
	}
}

// A cold tree build allocates the tree (header, distances, and one block
// of segments, parents, nodes and index) and nothing that scales with the
// network: search state is pooled.
func TestTreeBuildAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	for _, side := range []int{5, 40} {
		n := buildGrid(t, side, side)
		r := NewRouter(n)
		r.dijkstra(0) // grows the pooled heap to this network's frontier
		if allocs := testing.AllocsPerRun(50, func() { r.dijkstra(0) }); allocs != 3 {
			t.Errorf("%dx%d: cold tree build allocates %.1f objects, want 3", side, side, allocs)
		}
	}
}

// A tree costs what its search settled, not what the network holds: a
// search to the same near targets allocates the same bytes on a 10x10
// and a 120x120 grid, and an exhaustive search's bytes follow the nodes
// its bound lets it settle, a few dozen bytes each.
func TestTreeBytesFollowSettledNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	// allocated returns the fewest bytes one call of f allocates over 20
	// calls after a warm-up: a GC that empties the scratch pool between
	// two calls raises only one of them.
	allocated := func(f func()) uint64 {
		f()
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 20; i++ {
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := buildGrid(t, 10, 10), buildGrid(t, 120, 120)

	// Every node within two blocks of the corner: the search settles
	// exactly these five and the source.
	var trees [2]*ssspResult
	var sizes [2]uint64
	for i, side := range []int{10, 120} {
		net := small
		if side == 120 {
			net = large
		}
		r := NewRouter(net)
		near := []NodeID{1, 2, NodeID(side), NodeID(side + 1), NodeID(2 * side)}
		sizes[i] = allocated(func() { trees[i], _ = r.search(0, near) })
		if k := len(trees[i].node); k != 6 {
			t.Fatalf("%dx%d: the search to the corner's near nodes settled %d, want 6", side, side, k)
		}
	}
	if sizes[0] != sizes[1] {
		t.Errorf("a six-node tree allocates %d bytes on a 10x10 grid and %d on a 120x120 grid", sizes[0], sizes[1])
	}

	// Exhaustive under a bound of radius blocks: the (radius+1)(radius+2)/2
	// nodes within radius blocks of the corner, on either grid while they
	// fit in it.
	prev := uint64(0)
	for _, radius := range []int{2, 5, 10, 20, 40} {
		bound := WithMaxDist(float64(radius)*100 + 50)
		r := NewRouter(large, bound)
		var tree *ssspResult
		size := allocated(func() { tree = r.dijkstra(0) })
		k := len(tree.node)
		if want := (radius + 1) * (radius + 2) / 2; k != want {
			t.Fatalf("radius %d: exhaustive search settled %d nodes, want %d", radius, k, want)
		}
		if size <= prev || size > uint64(48*k+256) {
			t.Errorf("radius %d: a tree of %d nodes allocates %d bytes (%d at the last radius), want more and at most %d",
				radius, k, size, prev, 48*k+256)
		}
		prev = size
		if radius <= 5 {
			rs := NewRouter(small, bound)
			if got := allocated(func() { rs.dijkstra(0) }); got != size {
				t.Errorf("radius %d: the same %d-node tree allocates %d bytes on a 10x10 grid and %d on a 120x120 grid", radius, k, got, size)
			}
		}
	}
}

// dijkstra is search's exhaustive form: the whole tree within MaxDist.
func (r *Router) dijkstra(from NodeID) *ssspResult {
	t, _ := r.search(from, nil)
	return t
}

// at reads v's distance and parent segment through the tree's entry
// lookup: +Inf and -1 when the search did not settle v.
func (t *ssspResult) at(v NodeID) (float64, int32) {
	e := t.entry(v)
	if e < 0 {
		return math.Inf(1), -1
	}
	return t.dist[e], t.seg[e]
}

// checkTree holds a tree's layout: entry 0 is the source, every other
// entry's segment enters its node from its parent entry's node, parents
// come first, and the index is a power of two at least twice the entry
// count that finds each entry's node at that entry and holds nothing else.
func checkTree(t *testing.T, name string, net *Network, src NodeID, tree *ssspResult) {
	t.Helper()
	k := len(tree.node)
	if len(tree.dist) != k || len(tree.seg) != k || len(tree.up) != k {
		t.Fatalf("%s: tree from %d: %d nodes, %d dists, %d segments, %d parents", name, src, k, len(tree.dist), len(tree.seg), len(tree.up))
	}
	if k == 0 || NodeID(tree.node[0]) != src || tree.dist[0] != 0 || tree.seg[0] != -1 || tree.up[0] != -1 {
		t.Fatalf("%s: tree from %d does not start at its source", name, src)
	}
	if size := len(tree.index); size < 2*k || size&(size-1) != 0 {
		t.Fatalf("%s: tree from %d: index of %d slots for %d entries", name, src, size, k)
	}
	used := 0
	for _, e := range tree.index {
		if e >= 0 {
			used++
		}
	}
	if used != k {
		t.Fatalf("%s: tree from %d: index holds %d entries, tree %d", name, src, used, k)
	}
	for e := 0; e < k; e++ {
		if got := tree.entry(NodeID(tree.node[e])); got != int32(e) {
			t.Fatalf("%s: tree from %d: node %d found at entry %d, stored at %d", name, src, tree.node[e], got, e)
		}
		if e == 0 {
			continue
		}
		seg, up := net.Segment(SegmentID(tree.seg[e])), tree.up[e]
		if up < 0 || up >= int32(e) || seg.To != NodeID(tree.node[e]) || seg.From != NodeID(tree.node[up]) {
			t.Fatalf("%s: tree from %d: entry %d (node %d, segment %d) has parent entry %d", name, src, e, tree.node[e], tree.seg[e], up)
		}
	}
}

// refPQ and refDijkstra are the map-and-container/heap search the
// router used before its trees became slices, kept as the oracle the
// slice search must reproduce bit for bit.
type refPQ []keyItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	if q[i].tie != q[j].tie {
		return q[i].tie < q[j].tie
	}
	return q[i].node < q[j].node
}
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(keyItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func refDijkstra(n *Network, from NodeID, maxDist float64) (map[NodeID]float64, map[NodeID]SegmentID) {
	dist := map[NodeID]float64{from: 0}
	parent := map[NodeID]SegmentID{}
	tie := map[NodeID]uint64{from: 0}
	settled := map[NodeID]bool{}
	q := &refPQ{{node: from}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(keyItem)
		if settled[cur.node] {
			continue
		}
		settled[cur.node] = true
		for _, sid := range n.Out(cur.node) {
			seg := n.Segment(sid)
			nd := cur.dist + seg.Length
			if nd > maxDist {
				continue
			}
			nt := cur.tie + segTie(sid)
			if od, ok := dist[seg.To]; !ok || keyLess(nd, nt, od, tie[seg.To]) {
				dist[seg.To] = nd
				tie[seg.To] = nt
				parent[seg.To] = sid
				heap.Push(q, keyItem{seg.To, nd, nt})
			}
		}
	}
	return dist, parent
}

// refPath climbs the reference tree's parent segments from to back to from.
func refPath(n *Network, parent map[NodeID]SegmentID, from, to NodeID) []SegmentID {
	var path []SegmentID
	for cur := to; cur != from; cur = n.Segment(path[len(path)-1]).From {
		path = append(path, parent[cur])
	}
	slices.Reverse(path)
	return path
}

// buildOneWay is a 6x6 lattice whose rows alternate direction (one-way
// streets) under two-way columns, plus a two-node island nothing
// reaches.
func buildOneWay(t testing.TB) *Network {
	t.Helper()
	const w, h = 6, 6
	var b Builder
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			b.AddNode(geo.Pt(float64(i)*100, float64(j)*130))
		}
	}
	id := func(i, j int) NodeID { return NodeID(j*w + i) }
	add := func(from, to NodeID, twoWay bool) {
		var err error
		if twoWay {
			_, _, err = b.AddTwoWay(from, to, Local)
		} else {
			_, err = b.AddSegment(from, to, Local)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i+1 < w {
				if j%2 == 0 {
					add(id(i, j), id(i+1, j), false)
				} else {
					add(id(i+1, j), id(i, j), false)
				}
			}
			if j+1 < h {
				add(id(i, j), id(i, j+1), true)
			}
		}
	}
	add(b.AddNode(geo.Pt(9000, 9000)), b.AddNode(geo.Pt(9100, 9000)), true)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// The slice-backed search must reproduce the reference tree from every
// source: same reached set, same dist bits, same parent segment.
func TestDijkstraMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		net     *Network
		partial bool // some nodes must stay unreached from some source
		opts    []RouterOption
	}{
		{"exact-tie lattice", buildGrid(t, 7, 6), false, nil},
		{"jittered grid", buildJittered(t, 9, 9, 0.2, 5), false, nil},
		{"one-ways and an island", buildOneWay(t), true, nil},
		{"tight bound on a lattice", buildGrid(t, 7, 6), true, []RouterOption{WithMaxDist(350)}},
		{"tight bound on a jittered grid", buildJittered(t, 9, 9, 0.2, 5), true, []RouterOption{WithMaxDist(420)}},
	}
	for _, c := range cases {
		r := NewRouter(c.net, c.opts...)
		reached := 0
		for src := 0; src < c.net.NumNodes(); src++ {
			dist, parent := refDijkstra(c.net, NodeID(src), r.MaxDist())
			tree := r.dijkstra(NodeID(src))
			checkTree(t, c.name, c.net, NodeID(src), tree)
			reached += len(dist)
			for v := 0; v < c.net.NumNodes(); v++ {
				gotDist, gotParent := tree.at(NodeID(v))
				wd, wok := dist[NodeID(v)]
				if got := gotDist; wok != !math.IsInf(got, 1) || (wok && math.Float64bits(got) != math.Float64bits(wd)) {
					t.Fatalf("%s: dist %d->%d = %v, reference %v/%v", c.name, src, v, got, wd, wok)
				}
				wp, wok := parent[NodeID(v)]
				if got := gotParent; wok != (got >= 0) || (wok && SegmentID(got) != wp) {
					t.Fatalf("%s: parent %d->%d = %d, reference %d/%v", c.name, src, v, got, wp, wok)
				}
			}
		}
		if n := c.net.NumNodes(); c.partial && (reached == n*n || reached == n) {
			t.Errorf("%s: reference reached %d of %d node pairs; the case tests nothing partial", c.name, reached, n*n)
		}
	}
}

// A search drawing scratch state whose epoch is about to wrap clears the
// stamps first: stale state stamped 1, the first epoch after the wrap,
// must not count as reached.
func TestSearchEpochWrap(t *testing.T) {
	n := buildGrid(t, 6, 6)
	r := NewRouter(n)
	stale := &searchScratch{nodes: make([]nodeState, n.NumNodes()), want: make([]bool, n.NumNodes()), epoch: math.MaxUint32}
	for i := range stale.nodes {
		stale.nodes[i] = nodeState{seg: -1, up: -1, ent: 0, stamp: 1}
	}
	r.scratch.Put(stale) // the next search on this goroutine normally draws it
	tree := r.dijkstra(0)
	checkTree(t, "wrapped epoch", n, 0, tree)
	dist, parent := refDijkstra(n, 0, r.MaxDist())
	if len(tree.node) != len(dist) {
		t.Fatalf("wrapped epoch: tree holds %d nodes, reference %d", len(tree.node), len(dist))
	}
	for v, wd := range dist {
		d, p := tree.at(v)
		if math.Float64bits(d) != math.Float64bits(wd) || v != 0 && SegmentID(p) != parent[v] {
			t.Fatalf("wrapped epoch: node %d at %v over %d, reference %v over %d", v, d, p, wd, parent[v])
		}
	}
}

// RouteBetween must equal the route assembled from the reference tree —
// distance bits and segment list — on every pair shape: ahead on the
// same segment, behind on it (loops through the network), adjacent,
// multi-hop and unreachable.
func TestRouteBetweenMatchesReference(t *testing.T) {
	for _, n := range []*Network{buildGrid(t, 6, 6), buildJittered(t, 9, 9, 0.2, 5), buildOneWay(t)} {
		r := NewRouter(n)
		rng := rand.New(rand.NewSource(17))
		shapes := map[string]int{}
		for trial := 0; trial < 3000; trial++ {
			a := PointOnRoad{SegmentID(rng.Intn(n.NumSegments())), rng.Float64()}
			b := PointOnRoad{SegmentID(rng.Intn(n.NumSegments())), rng.Float64()}
			switch trial % 3 {
			case 1: // same segment, either order
				b.Seg = a.Seg
			case 2: // adjacent, when a's segment has a successor
				if next := n.Next(a.Seg); len(next) > 0 {
					b.Seg = next[rng.Intn(len(next))]
				}
			}
			segA, segB := n.Segment(a.Seg), n.Segment(b.Seg)
			var want Route
			wok := true
			switch {
			case a.Seg == b.Seg && b.Frac >= a.Frac:
				shapes["ahead"]++
				want = Route{Dist: (b.Frac - a.Frac) * segA.Length, Segs: []SegmentID{a.Seg}}
			case segA.To == segB.From:
				shapes["adjacent"]++
				want = Route{Dist: (1-a.Frac)*segA.Length + b.Frac*segB.Length, Segs: []SegmentID{a.Seg, b.Seg}}
			default:
				dist, parent := refDijkstra(n, segA.To, r.MaxDist())
				d, ok := dist[segB.From]
				if wok = ok; !ok {
					shapes["unreachable"]++
					break
				}
				if a.Seg == b.Seg {
					shapes["behind"]++
				} else {
					shapes["far"]++
				}
				want.Dist = (1-a.Frac)*segA.Length + d + b.Frac*segB.Length
				want.Segs = append([]SegmentID{a.Seg}, refPath(n, parent, segA.To, segB.From)...)
				want.Segs = append(want.Segs, b.Seg)
			}
			got, ok := r.RouteBetween(a, b)
			if ok != wok || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) || !slices.Equal(got.Segs, want.Segs) {
				t.Fatalf("RouteBetween(%v,%v) = %+v/%v, reference %+v/%v", a, b, got, ok, want, wok)
			}
			if d, okD := r.RouteDist(a, b); okD != wok || math.Float64bits(d) != math.Float64bits(want.Dist) {
				t.Fatalf("RouteDist(%v,%v) = %v/%v, reference %v/%v", a, b, d, okD, want.Dist, wok)
			}
		}
		for _, shape := range []string{"ahead", "behind", "adjacent", "far"} {
			if shapes[shape] == 0 {
				t.Errorf("no %q pair drawn: %v", shape, shapes)
			}
		}
	}
}

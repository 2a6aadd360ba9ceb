package roadnet

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Router telemetry (internal/obs). Handles are interned once; every
// update is a no-op single atomic load until the Default registry is
// enabled.
var (
	obsCacheHits      = obs.Default.Counter("router.cache.hits")
	obsCacheMisses    = obs.Default.Counter("router.cache.misses")
	obsCacheEvictions = obs.Default.Counter("router.cache.evictions")
	obsCacheSize      = obs.Default.Gauge("router.cache.size")
	obsRoutes         = obs.Default.Counter("router.routes")
	obsRouteMisses    = obs.Default.Counter("router.routes.unreachable")
	// Dijkstra runs are microsecond-scale; the fine buckets keep its
	// quantiles meaningful (the coarse LatencyBuckets start at 100µs).
	obsDijkstraS = obs.Default.Histogram("router.dijkstra.seconds", obs.FineLatencyBuckets)
)

func init() {
	// Derived at scrape time from the hit/miss counters; exported as
	// lhmm_router_cache_hit_rate.
	obs.Default.Derived("router.cache.hit_rate", func() float64 {
		h, m := float64(obsCacheHits.Value()), float64(obsCacheMisses.Value())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
}

// PointOnRoad is a position expressed as a fraction along a segment —
// the form candidate matches take during path-finding.
type PointOnRoad struct {
	Seg  SegmentID
	Frac float64 // 0 at the segment start, 1 at the end
}

// Route is a path through the network between two on-road points.
type Route struct {
	Dist float64     // route length in meters
	Segs []SegmentID // traversed segments, in order, inclusive of both ends
}

// Router answers shortest-path queries over a Network. Searches are
// bounded by MaxDist. Single-source Dijkstra trees are memoized in an
// approximate-LRU (CLOCK) cache, mirroring the precomputation table the
// paper uses to avoid repeated shortest-path searches (§V-A2); a tree is
// searched only as far as the targets asked of it and extended when a
// later query asks for a farther one. Router is safe for concurrent use.
type Router struct {
	net     *Network
	maxDist float64

	// mu guards the cache's writers (keep). A hit takes no lock: it
	// loads its source's slot from hot, which keep publishes to.
	mu       sync.Mutex
	cache    map[NodeID]int // source -> slot index in entries
	entries  []*cacheSlot
	hot      []atomic.Pointer[cacheSlot] // per source node: its slot, nil when none
	hand     int                         // CLOCK sweep position
	capacity int

	scratch sync.Pool // *searchScratch
	walks   sync.Pool // *walkScratch
}

// cacheSlot is one CLOCK-cache slot. The reference bit is set on every
// hit and gives the entry a second chance during the eviction sweep, so
// hot sources survive scans of cold ones — the property an exact LRU
// has without its cost of mutating a shared recency list on every hit.
// Only the bit ever changes: keep replaces a slot whose tree it replaces
// or whose source it evicts with a new one, so a hit that loaded the old
// one still reads a consistent (and still correct) tree.
type cacheSlot struct {
	source NodeID
	tree   *ssspResult
	last   int32 // the search's last settled node; -1 = it ran to exhaustion
	ref    atomic.Bool
}

// touch sets the slot's reference bit, writing only when it is clear so
// that hits on a hot slot leave its cache line shared.
func (e *cacheSlot) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// ssspResult holds a single-source shortest-path tree as the nodes its
// search settled, in settle order: entry 0 is the source, and every other
// entry names the segment that reaches its node and the entry of that
// segment's tail, which always comes earlier. Parents describe the unique
// minimum-(dist, tie) path from the source (see segTie). The settled
// nodes are a prefix of the canonical pop order that ends at the search's
// last settled node, or all of it when the search ran to exhaustion. Every
// tree from one source is a prefix of the same order, so of two trees the
// one that settled the other's last node contains it. A tree costs 28–36
// bytes per settled node, whatever the size of the network. Immutable
// once cached.
type ssspResult struct {
	dist  []float64 // per entry: route length from the source
	seg   []int32   // per entry: segment entering the node; -1 at the source
	up    []int32   // per entry: the parent's entry; -1 at the source
	node  []int32   // per entry: the settled node
	index []int32   // NodeID -> entry, open addressing; -1 = empty slot
}

// entry returns v's entry in the tree, or -1 when the search did not
// settle v. The index is a power of two at most half full, probed
// linearly from v's Fibonacci hash.
func (t *ssspResult) entry(v NodeID) int32 {
	mask := uint32(len(t.index) - 1)
	for h := fibHash(v, mask); ; h = (h + 1) & mask {
		e := t.index[h]
		if e < 0 || NodeID(t.node[e]) == v {
			return e
		}
	}
}

// fibHash maps v to a slot of a power-of-two table with the given mask:
// the top bits of v times 2^32/φ.
func fibHash(v NodeID, mask uint32) uint32 {
	return uint32(v) * 0x9e3779b9 >> bits.LeadingZeros32(mask)
}

// covers reports whether a tree whose search ended at last (-1 =
// exhausted) answers every target, writing each target's entry (-1 = not
// settled) to ents.
func (t *ssspResult) covers(last int32, targets []NodeID, ents []int32) bool {
	all := true
	for i, v := range targets {
		ents[i] = t.entry(v)
		all = all && ents[i] >= 0
	}
	return all || last < 0
}

// newTree copies a finished search's settled nodes out of its scratch
// state: three allocations (header, distances, and one block for the
// segments, parents, nodes and index), sized by the settled count.
func newTree(order []NodeID, ns []nodeState) *ssspResult {
	k := len(order)
	size := 2
	for size < 2*k {
		size <<= 1
	}
	ints := make([]int32, 3*k+size)
	t := &ssspResult{
		dist:  make([]float64, k),
		seg:   ints[:k:k],
		up:    ints[k : 2*k : 2*k],
		node:  ints[2*k : 3*k : 3*k],
		index: ints[3*k:],
	}
	for i := range t.index {
		t.index[i] = -1
	}
	mask := uint32(size - 1)
	for i, v := range order {
		st := &ns[v]
		t.dist[i], t.seg[i], t.up[i], t.node[i] = st.dist, st.seg, st.up, int32(v)
		h := fibHash(v, mask)
		for t.index[h] >= 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(i)
	}
	return t
}

// searchScratch is the per-search state of search that no cached tree
// keeps: one nodeState per network node, valid only where its stamp is
// the current search's epoch, so starting a search is one increment
// rather than a clear; the wanted marks, cleared by the search that set
// them; the settle order; and the heap's backing array.
type searchScratch struct {
	nodes []nodeState
	epoch uint32
	want  []bool
	order []NodeID
	q     keyPQ
}

// nodeState is a node's search state: the best (dist, tie) key found so
// far and the segment and parent entry it was found over, final once the
// node is settled and has an entry.
type nodeState struct {
	dist  float64
	tie   uint64
	seg   int32  // segment reaching the node; -1 at the source
	up    int32  // entry of seg's tail
	ent   int32  // the node's entry once settled; -1 before
	stamp uint32 // the epoch of the search that reached the node
}

// walkScratch is the per-call state of TreeWalk: mark[v] == epoch means
// v's step was already emitted by this walk, so starting a walk is one
// increment rather than a clear.
type walkScratch struct {
	mark  []uint32
	epoch uint32
	ents  []int32 // each target's entry in the source's tree
}

// TreeStep is one edge of a source's shortest-path tree: Node is entered
// from Parent over Seg.
type TreeStep struct {
	Node, Parent NodeID
	Seg          SegmentID
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithMaxDist bounds every search to the given route length in meters.
// Queries beyond the bound report unreachable. Default 30 km.
func WithMaxDist(d float64) RouterOption {
	return func(r *Router) { r.maxDist = d }
}

// WithCacheSize sets how many single-source trees are memoized.
// Default 4096.
func WithCacheSize(n int) RouterOption {
	return func(r *Router) { r.capacity = n }
}

// NewRouter creates a Router over the network.
func NewRouter(net *Network, opts ...RouterOption) *Router {
	r := &Router{
		net:      net,
		maxDist:  30000,
		cache:    make(map[NodeID]int),
		capacity: 4096,
	}
	for _, o := range opts {
		o(r)
	}
	if r.capacity > 0 {
		r.hot = make([]atomic.Pointer[cacheSlot], net.NumNodes())
	}
	return r
}

// MaxDist returns the search bound in meters.
func (r *Router) MaxDist() float64 { return r.maxDist }

// NodeDist returns the shortest route length between two nodes, or
// ok=false if unreachable within the search bound.
func (r *Router) NodeDist(from, to NodeID) (float64, bool) {
	if from == to {
		return 0, true
	}
	tgt, ent := [1]NodeID{to}, [1]int32{}
	t := r.tree(from, tgt[:], ent[:])
	if ent[0] < 0 {
		return 0, false
	}
	return t.dist[ent[0]], true
}

// nodePath returns the segment sequence and length of the shortest
// route between two nodes, or ok=false if unreachable within the bound;
// an empty path with ok=true means from == to. The slice has pad unset
// slots on either side of the path, where RouteBetween puts its end
// segments.
func (r *Router) nodePath(from, to NodeID, pad int) ([]SegmentID, float64, bool) {
	if from == to {
		return nil, 0, true
	}
	// Climb parent entries from to's up to the source's (entry 0): once to
	// count, once to fill.
	tgt, ent := [1]NodeID{to}, [1]int32{}
	t := r.tree(from, tgt[:], ent[:])
	end := ent[0]
	if end < 0 {
		return nil, 0, false // to was not reached
	}
	hops := 0
	for e := end; e != 0; e = t.up[e] {
		hops++
	}
	segs := make([]SegmentID, hops+2*pad)
	for i, e := pad+hops-1, end; i >= pad; i, e = i-1, t.up[e] {
		segs[i] = SegmentID(t.seg[e])
	}
	return segs, t.dist[end], true
}

// TreeWalk is the one-source, many-targets form of nodePath for callers
// that fold values along paths instead of reading segment lists. dist[i]
// receives the route length from source to targets[i] (+Inf = unreachable
// within the bound; the bits NodeDist reports), and the union of the
// shortest paths to the reachable targets is appended to steps and
// returned: every node on one of them once however many targets share
// it, the source never, and a node's parent always before the node — so
// one left-to-right scan of the steps accumulates any per-segment
// quantity source→target in exactly the order a walk of each path on its
// own would. Targets may repeat and may include the source.
//
// Each target climbs the cached tree's parent entries to the first node
// an earlier target already emitted: one cache lookup per call for a tree
// that settled every target of the call, and one index probe per target.
func (r *Router) TreeWalk(source NodeID, targets []NodeID, dist []float64, steps []TreeStep) []TreeStep {
	ws, _ := r.walks.Get().(*walkScratch)
	if ws == nil {
		ws = &walkScratch{mark: make([]uint32, r.net.NumNodes())}
	}
	ws.ents = slices.Grow(ws.ents[:0], len(targets))[:len(targets)]
	if ws.epoch == math.MaxUint32 {
		clear(ws.mark)
		ws.epoch = 0
	}
	ws.epoch++
	mark, epoch := ws.mark, ws.epoch
	mark[source] = epoch

	var t *ssspResult // searched when the first target needs it
	for i, v := range targets {
		if v == source {
			dist[i] = 0
			continue
		}
		if t == nil {
			t = r.tree(source, targets, ws.ents)
		}
		e := ws.ents[i]
		if e < 0 {
			dist[i] = math.Inf(1)
			continue
		}
		dist[i] = t.dist[e]
		// Every ancestor of a settled node was settled; the climb ends at
		// the source's mark at the latest.
		start := len(steps)
		for cur := v; mark[cur] != epoch; {
			mark[cur] = epoch
			p := t.up[e]
			from := NodeID(t.node[p])
			steps = append(steps, TreeStep{Node: cur, Parent: from, Seg: SegmentID(t.seg[e])})
			cur, e = from, p
		}
		slices.Reverse(steps[start:])
	}
	r.walks.Put(ws)
	return steps
}

// CountRoutes records n routes a caller scored off TreeWalk output
// instead of through RouteBetween or RouteDist, unreachable of them
// beyond the bound, so router.routes and router.routes.unreachable keep
// counting one per pair whichever way it was scored.
func CountRoutes(n, unreachable int) {
	obsRoutes.Add(int64(n))
	obsRouteMisses.Add(int64(unreachable))
}

// RouteBetween returns the route from point a to point b, both given as
// positions on road segments. Movement follows segment direction: the
// route leaves a through the rest of its segment and enters b through
// the start of b's segment, except when both points lie on the same
// segment with b ahead of a. ok=false means b is unreachable within the
// search bound.
func (r *Router) RouteBetween(a, b PointOnRoad) (Route, bool) {
	obsRoutes.Inc()
	segA, segB := r.net.Segment(a.Seg), r.net.Segment(b.Seg)
	if a.Seg == b.Seg && b.Frac >= a.Frac {
		return Route{
			Dist: (b.Frac - a.Frac) * segA.Length,
			Segs: []SegmentID{a.Seg},
		}, true
	}
	head := (1 - a.Frac) * segA.Length // remaining length of a's segment
	tail := b.Frac * segB.Length       // consumed length of b's segment
	if segA.To == segB.From {
		return Route{
			Dist: head + tail,
			Segs: []SegmentID{a.Seg, b.Seg},
		}, true
	}
	segs, d, ok := r.nodePath(segA.To, segB.From, 1)
	if !ok {
		obsRouteMisses.Inc()
		return Route{}, false
	}
	segs[0], segs[len(segs)-1] = a.Seg, b.Seg
	return Route{Dist: head + d + tail, Segs: segs}, true
}

// RouteDist returns only the length of the route from a to b — the
// same distance RouteBetween reports, without materializing the
// segment list. Transition models that score on distance alone use it
// to keep per-step scoring allocation-free on the warm cache path.
func (r *Router) RouteDist(a, b PointOnRoad) (float64, bool) {
	obsRoutes.Inc()
	segA, segB := r.net.Segment(a.Seg), r.net.Segment(b.Seg)
	if a.Seg == b.Seg && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * segA.Length, true
	}
	head := (1 - a.Frac) * segA.Length
	tail := b.Frac * segB.Length
	if segA.To == segB.From {
		return head + tail, true
	}
	d, ok := r.NodeDist(segA.To, segB.From)
	if !ok {
		obsRouteMisses.Inc()
		return 0, false
	}
	return head + d + tail, true
}

// tree returns a memoized shortest-path tree rooted at from that answers
// every one of the (non-empty) targets, and writes each target's entry in
// it to ents (-1 = unreachable within the bound). A cached tree that
// covers them is a hit, found and checked without a lock (slots are
// published atomically and cached trees are immutable).
// Otherwise the search runs again to the targets and its tree takes the
// cached one's slot: an extension counts as a miss and evicts nothing.
// It loses nothing either: a target the cached tree did not settle comes
// after all of that tree's nodes in the pop order, so the new search
// settles them all on its way to the target.
func (r *Router) tree(from NodeID, targets []NodeID, ents []int32) *ssspResult {
	var old *ssspResult
	var oldLast int32
	if r.hot != nil {
		if e := r.hot[from].Load(); e != nil {
			e.touch()
			old, oldLast = e.tree, e.last
		}
	}
	if old != nil && old.covers(oldLast, targets, ents) {
		obsCacheHits.Inc()
		return old
	}
	obsCacheMisses.Inc()

	var start time.Time
	timed := obs.Default.Enabled()
	if timed {
		start = time.Now()
	}
	t, last := r.search(from, targets)
	if timed {
		obsDijkstraS.ObserveSince(start)
	}

	t = r.keep(from, t, last)
	t.covers(-1, targets, ents)
	return t
}

// keep caches t, the tree of a search from `from` that ended at last, or
// leaves from's slot as it is if its tree contains t, and returns the
// tree it kept.
func (r *Router) keep(from NodeID, t *ssspResult, last int32) *ssspResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.cache[from]; ok {
		// The slot may hold a tree another goroutine built or extended
		// meanwhile. Both are prefixes of one settle order: keep the one
		// that contains the other.
		e := r.entries[i]
		if e.last < 0 || last >= 0 && e.tree.entry(NodeID(last)) >= 0 {
			e.ref.Store(true)
			return e.tree
		}
		r.publish(i, &cacheSlot{source: from, tree: t, last: last}, true)
		return t
	}
	if r.capacity <= 0 {
		return t
	}
	slot := &cacheSlot{source: from, tree: t, last: last}
	if len(r.entries) < r.capacity {
		r.cache[from] = len(r.entries)
		r.entries = append(r.entries, nil)
		r.publish(len(r.entries)-1, slot, false)
	} else {
		// CLOCK sweep: pass over referenced slots clearing their bit,
		// evict the first unreferenced one. New entries start with the
		// bit clear, so a scan of one-shot sources recycles its own
		// slots before it can push out a recently re-used tree.
		for r.entries[r.hand].ref.Load() {
			r.entries[r.hand].ref.Store(false)
			r.hand = (r.hand + 1) % len(r.entries)
		}
		victim := r.hand
		gone := r.entries[victim].source
		delete(r.cache, gone)
		r.hot[gone].Store(nil)
		obsCacheEvictions.Inc()
		r.cache[from] = victim
		r.publish(victim, slot, false)
		r.hand = (victim + 1) % len(r.entries)
	}
	obsCacheSize.Set(int64(len(r.cache)))
	return t
}

// publish puts slot into entries[i] and makes it its source's hit, with
// the reference bit set when ref is. r.mu must be held.
func (r *Router) publish(i int, slot *cacheSlot, ref bool) {
	slot.ref.Store(ref)
	r.entries[i] = slot
	r.hot[slot.source].Store(slot)
}

// segTie returns the canonical tie-break value of a segment: a fixed
// pseudo-random 44-bit integer derived from the id (splitmix64 mix).
// Routing orders paths by the lexicographic key (distance, sum of
// segment tie values), which makes the minimum-key path unique almost
// surely even on grid networks where many distinct paths share the
// exact same length. That uniqueness pins one path per node pair that
// does not depend on how a search is run: a bounded search, an extended
// one and an independent reference implementation all report it.
// 44-bit values keep sums overflow-free to 2^20 hops.
func segTie(id SegmentID) uint64 {
	x := uint64(id) + 1
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x >> 20
}

// keyLess reports whether key (d1, t1) precedes (d2, t2) in the
// canonical lexicographic path order.
func keyLess(d1 float64, t1 uint64, d2 float64, t2 uint64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return t1 < t2
}

// keyItem is a priority-queue entry carrying the canonical (dist, tie)
// key; the node id is the final comparison so pop order is fully
// deterministic.
type keyItem struct {
	node NodeID
	dist float64
	tie  uint64
}

func (a keyItem) less(b keyItem) bool {
	if a.dist != b.dist || a.tie != b.tie {
		return keyLess(a.dist, a.tie, b.dist, b.tie)
	}
	return a.node < b.node
}

// keyPQ is a binary min-heap of keyItems. A search re-pushes a node
// only with a strictly smaller key, so the items it holds are totally
// ordered and pop order does not depend on the heap's layout.
type keyPQ []keyItem

func (q *keyPQ) push(it keyItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

// pop removes and returns the minimum item of a non-empty heap.
func (q *keyPQ) pop() keyItem {
	h := *q
	n := len(h) - 1
	top, it := h[0], h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
	*q = h[:n]
	return top
}

// search runs a single-source shortest-path search under the canonical
// (distance, tie, node) pop order and stops as soon as it has settled
// every target; nil targets run it to exhaustion. Nothing beyond MaxDist
// is ever pushed. The pop order is a strict total order, so a search
// that stops early has settled a prefix of the exhaustive search's
// sequence, with the same final dist and parent for every node in it.
// It returns the tree of the settled nodes and its last settled node, -1
// if it ran to exhaustion. The search state other than the tree itself
// comes from the scratch pool, and the search touches only the nodes it
// reaches: it costs O(settled) however large the network.
func (r *Router) search(from NodeID, targets []NodeID) (*ssspResult, int32) {
	s, _ := r.scratch.Get().(*searchScratch)
	if s == nil {
		n := r.net.NumNodes()
		s = &searchScratch{nodes: make([]nodeState, n), want: make([]bool, n)}
	}
	if s.epoch == math.MaxUint32 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.epoch = 0
	}
	s.epoch++
	ns, epoch := s.nodes, s.epoch
	// pending counts the wanted nodes not yet settled; it stays -1 for an
	// exhaustive search.
	pending := -1
	if targets != nil {
		pending = 0
		for _, v := range targets {
			if !s.want[v] {
				s.want[v] = true
				pending++
			}
		}
	}
	q, order := s.q[:0], s.order[:0]
	ns[from] = nodeState{seg: -1, up: -1, ent: -1, stamp: epoch}
	q.push(keyItem{node: from})
	last := int32(-1)
	for len(q) > 0 {
		cur := q.pop()
		st := &ns[cur.node]
		if st.ent >= 0 {
			continue // a stale entry of a node settled at a smaller key
		}
		st.ent = int32(len(order))
		order = append(order, cur.node)
		if s.want[cur.node] {
			s.want[cur.node] = false
			if pending--; pending == 0 {
				last = int32(cur.node)
				break
			}
		}
		for _, sid := range r.net.Out(cur.node) {
			seg := r.net.Segment(sid)
			nd := cur.dist + seg.Length
			if nd > r.maxDist {
				continue
			}
			nt := cur.tie + segTie(sid)
			to := &ns[seg.To]
			switch {
			case to.stamp != epoch:
				*to = nodeState{dist: nd, tie: nt, seg: int32(sid), up: st.ent, ent: -1, stamp: epoch}
			case keyLess(nd, nt, to.dist, to.tie):
				to.dist, to.tie, to.seg, to.up = nd, nt, int32(sid), st.ent
			default:
				continue
			}
			q.push(keyItem{seg.To, nd, nt})
		}
	}
	if last < 0 {
		// Wanted nodes the search never reached keep their marks.
		for _, v := range targets {
			s.want[v] = false
		}
	}
	t := newTree(order, ns)
	s.q, s.order = q, order
	r.scratch.Put(s)
	return t, last
}

package roadnet

// Contraction Hierarchies over a Network.
//
// BuildHierarchy contracts nodes in edge-difference order, inserting
// shortcut edges that preserve shortest paths among the not-yet-
// contracted remainder, then splits all edges (original + shortcut)
// into an upward and a downward search graph. Queries run as lazy hub
// labeling on top of that: each endpoint gets a label — its exhaustive
// rank-ascending search space, a few hundred nodes where the flat
// search settles tens of thousands — and a source/target pair is
// answered by merge-intersecting the two labels. Labels are cached per
// node (Router), so the k×k transition fan-outs of HMM matching reuse
// each endpoint's label across every pair it appears in.
//
// Exactness contract: the router's canonical path order is the
// lexicographic key (distance, sum of per-segment tie values) — see
// segTie. Every hierarchy edge carries that key; a shortcut's key is
// the componentwise sum of its children's keys, and witness searches
// compare full keys. The canonical minimum-key path is therefore
// preserved through contraction, and the query reproduces the flat
// Dijkstra's path segment for segment. Reported distances are
// recomputed by summing segment lengths left-to-right along the
// unpacked path — the same fold, in the same order, as the flat
// Dijkstra's dist[v] = dist[u] + len accumulation — so they are
// bit-identical too, not merely close.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

var (
	obsCHShortcuts = obs.Default.Gauge("router.ch.shortcuts")
	obsCHSettled   = obs.Default.Counter("router.ch.settled")
	obsCHQueries   = obs.Default.Counter("router.ch.queries")
)

// chEdge is one edge of the hierarchy: either an original road segment
// (seg >= 0) or a shortcut standing for the two-edge path a then b
// (seg == -1). The (d, t) pair is the edge's canonical path key.
type chEdge struct {
	from, to NodeID
	d        float64
	t        uint64
	seg      int32 // original segment id, or -1 for a shortcut
	a, b     int32 // child edge indices, unpack order a then b
}

// Hierarchy is an immutable Contraction-Hierarchies index over a
// Network. Build one with BuildHierarchy (or load it from a binary
// network file); attach it to a Router with WithHierarchy. Safe for
// concurrent use once built.
type Hierarchy struct {
	net   *Network
	rank  []int32  // node -> contraction order, 0 contracted first
	edges []chEdge // base edges first, then shortcuts in creation order
	nBase int

	// Query graphs, CSR over edge indices. Forward search from u walks
	// upAdj (edges leaving u toward higher rank); backward search from
	// v walks downAdj (edges entering v from higher rank).
	upOff, downOff []int32
	upAdj, downAdj []int32

	pool sync.Pool // *labelScratch
}

// NumShortcuts returns the number of shortcut edges the preprocessing
// added on top of the original segments.
func (h *Hierarchy) NumShortcuts() int { return len(h.edges) - h.nBase }

// witness-search settle budgets. The cheap one estimates contraction
// priorities; the thorough one guards actual shortcut insertion. An
// exhausted budget conservatively inserts the shortcut — never wrong,
// just an extra edge. The insertion budget is deliberately generous:
// skimping there starts a spiral on grid networks (missed witnesses
// add shortcuts, shortcuts inflate degrees and via-distances, which
// exhausts more budgets), and a 38k-node metro grid builds ~10×
// faster with a 1500-settle budget than with 120.
const (
	chPriorityWitnessCap = 96
	chContractWitnessCap = 1500
)

// baseEdges derives the hierarchy's base edge set from the network:
// segments in id order, self-loops dropped (they can never improve a
// canonical key), parallel same-direction edges collapsed to the one
// with the minimum key (the only one a canonical path can use). The
// result is a pure function of the network, which is what lets the
// binary format store shortcuts as indices into it.
func baseEdges(net *Network) []chEdge {
	edges := make([]chEdge, 0, net.NumSegments())
	idx := make(map[uint64]int32, net.NumSegments())
	for i := 0; i < net.NumSegments(); i++ {
		s := net.Segment(SegmentID(i))
		if s.From == s.To {
			continue
		}
		e := chEdge{from: s.From, to: s.To, d: s.Length, t: segTie(SegmentID(i)), seg: int32(i), a: -1, b: -1}
		k := uint64(uint32(s.From))<<32 | uint64(uint32(s.To))
		if j, ok := idx[k]; ok {
			if keyLess(e.d, e.t, edges[j].d, edges[j].t) {
				edges[j] = e
			}
			continue
		}
		idx[k] = int32(len(edges))
		edges = append(edges, e)
	}
	return edges
}

// BuildHierarchy runs Contraction-Hierarchies preprocessing over the
// network. The build is deterministic: ties in the node order break on
// node id, and shortcut creation order follows the contraction order.
func BuildHierarchy(net *Network) *Hierarchy {
	h := &Hierarchy{net: net}
	h.edges = baseEdges(net)
	h.nBase = len(h.edges)
	h.contract()
	h.buildQueryGraph()
	return h
}

// contractState is the mutable overlay graph used during preprocessing.
// The overlay keeps exactly one live edge per (from, to) pair — when a
// new shortcut dominates an existing parallel edge (strictly smaller
// key), the old edge leaves the adjacency lists. Dominated edges can
// never lie on a canonical path, and keeping the lists tight is what
// keeps witness searches and node degrees bounded on grid-like
// networks, where contraction otherwise spirals (every shortcut
// inflates degrees, which defeats witness searches, which adds more
// shortcuts).
type contractState struct {
	h          *Hierarchy
	outAdj     [][]int32 // node -> live edge indices leaving it
	inAdj      [][]int32 // node -> live edge indices entering it
	contracted []bool
	deletedN   []int32 // contracted-neighbor count (coherence term)
	level      []int32 // hierarchy depth: 1 + max level of contracted neighbors
	wit        witScratch

	// per-contraction scratch: min-key overlay edge per neighbor
	inMin, outMin []int32 // neighbor-indexed lists rebuilt per node
}

// witScratch is a version-stamped single-source search state reused
// across the many small witness searches of a build.
type witScratch struct {
	dist []float64
	tie  []uint64
	verD []int32 // stamp for dist/tie validity
	verS []int32 // stamp for settled
	verT []int32 // stamp for "is a target of the current one-to-many"
	cur  int32
	q    keyPQ
}

func (w *witScratch) init(n int) {
	w.dist = make([]float64, n)
	w.tie = make([]uint64, n)
	w.verD = make([]int32, n)
	w.verS = make([]int32, n)
	w.verT = make([]int32, n)
}

func (h *Hierarchy) contract() {
	n := h.net.NumNodes()
	st := &contractState{
		h:          h,
		outAdj:     make([][]int32, n),
		inAdj:      make([][]int32, n),
		contracted: make([]bool, n),
		deletedN:   make([]int32, n),
		level:      make([]int32, n),
	}
	st.wit.init(n)
	for i := range h.edges {
		e := &h.edges[i]
		st.outAdj[e.from] = append(st.outAdj[e.from], int32(i))
		st.inAdj[e.to] = append(st.inAdj[e.to], int32(i))
	}

	h.rank = make([]int32, n)
	pq := make(nodePQ, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, nodeOrderItem{pri: st.priority(NodeID(v)), node: NodeID(v)})
	}
	heap.Init(&pq)

	order := int32(0)
	for pq.Len() > 0 {
		top := heap.Pop(&pq).(nodeOrderItem)
		v := top.node
		if st.contracted[v] {
			continue
		}
		// Lazy update: neighbors contracted since this entry was pushed
		// may have changed the priority. Recompute; if the node no
		// longer leads, push it back and take the new leader.
		if pri := st.priority(v); pq.Len() > 0 && pri > pq[0].pri {
			heap.Push(&pq, nodeOrderItem{pri: pri, node: v})
			continue
		}
		st.addShortcuts(v, true, chContractWitnessCap)
		st.contracted[v] = true
		h.rank[v] = order
		order++
		for _, ei := range st.outAdj[v] {
			if to := h.edges[ei].to; !st.contracted[to] {
				st.deletedN[to]++
				if st.level[to] < st.level[v]+1 {
					st.level[to] = st.level[v] + 1
				}
			}
		}
		for _, ei := range st.inAdj[v] {
			if from := h.edges[ei].from; !st.contracted[from] {
				st.deletedN[from]++
				if st.level[from] < st.level[v]+1 {
					st.level[from] = st.level[v] + 1
				}
			}
		}
	}
}

// priority is the contraction-order heuristic: edge difference
// (shortcuts a contraction would add minus overlay edges it removes)
// weighted double, plus the contracted-neighbor count and the
// hierarchy depth. The depth term is what keeps grid-like networks
// tractable: without it, contraction eats the dense core from one side
// and the frontier nodes accumulate enormous overlay degrees.
func (st *contractState) priority(v NodeID) int32 {
	added, removed := st.addShortcuts(v, false, chPriorityWitnessCap)
	return 2*(added-removed) + st.deletedN[v] + st.level[v]
}

// neighborMins rebuilds st.inMin/st.outMin with the live overlay edges
// to/from v's uncontracted neighbors. The overlay invariant (one live
// edge per pair, always the minimum-key one) means no per-pair
// minimization is needed here.
func (st *contractState) neighborMins(v NodeID) {
	h := st.h
	st.inMin = st.inMin[:0]
	for _, ei := range st.inAdj[v] {
		e := &h.edges[ei]
		if !st.contracted[e.from] && e.from != v {
			st.inMin = append(st.inMin, ei)
		}
	}
	st.outMin = st.outMin[:0]
	for _, ei := range st.outAdj[v] {
		e := &h.edges[ei]
		if !st.contracted[e.to] && e.to != v {
			st.outMin = append(st.outMin, ei)
		}
	}
}

// addShortcuts determines (and with materialize=true, inserts) the
// shortcuts contracting v requires: for each in-neighbor u and
// out-neighbor w, a shortcut u->w unless a witness path avoiding v is
// strictly better than the path through v. Returns the shortcut count
// and the number of overlay edges incident to v (the "removed" term of
// the edge difference).
func (st *contractState) addShortcuts(v NodeID, materialize bool, witnessCap int) (added, removed int32) {
	h := st.h
	st.neighborMins(v)
	removed = int32(len(st.inMin) + len(st.outMin))
	if len(st.inMin) == 0 || len(st.outMin) == 0 {
		return 0, removed
	}
	for _, inIdx := range st.inMin {
		eIn := h.edges[inIdx] // by value: appends below may grow h.edges
		u := eIn.from
		// One bounded search from u covers all targets w. The search
		// never enters v; its d-bound is the largest via-v distance.
		maxD := 0.0
		targets := 0
		for _, outIdx := range st.outMin {
			eOut := &h.edges[outIdx]
			if eOut.to == u {
				continue
			}
			st.wit.markTarget(eOut.to)
			targets++
			if d := eIn.d + eOut.d; d > maxD {
				maxD = d
			}
		}
		if targets == 0 {
			continue
		}
		st.witnessSearch(u, v, maxD, witnessCap, targets)
		for _, outIdx := range st.outMin {
			eOut := h.edges[outIdx]
			w := eOut.to
			if w == u {
				continue
			}
			viaD, viaT := eIn.d+eOut.d, eIn.t+eOut.t
			if st.wit.settledBetter(w, viaD, viaT) {
				continue // witness found: canonical path avoids v
			}
			added++
			if materialize {
				st.insertShortcut(u, w, viaD, viaT, inIdx, outIdx)
			}
		}
	}
	return added, removed
}

// insertShortcut adds a shortcut edge, maintaining the one-live-edge-
// per-pair overlay invariant: if an existing edge u->w carries a key at
// least as small the shortcut is dropped (it can never be on a
// canonical path); otherwise the existing edge is dominated and leaves
// the overlay.
func (st *contractState) insertShortcut(u, w NodeID, d float64, t uint64, a, b int32) {
	h := st.h
	for k, ei := range st.outAdj[u] {
		e := &h.edges[ei]
		if e.to != w {
			continue
		}
		if !keyLess(d, t, e.d, e.t) {
			return
		}
		ni := int32(len(h.edges))
		h.edges = append(h.edges, chEdge{from: u, to: w, d: d, t: t, seg: -1, a: a, b: b})
		st.outAdj[u][k] = ni
		in := st.inAdj[w]
		for k2, ej := range in {
			if ej == ei {
				in[k2] = ni
				break
			}
		}
		return
	}
	ei := int32(len(h.edges))
	h.edges = append(h.edges, chEdge{from: u, to: w, d: d, t: t, seg: -1, a: a, b: b})
	st.outAdj[u] = append(st.outAdj[u], ei)
	st.inAdj[w] = append(st.inAdj[w], ei)
}

// markTarget flags a node as a target of the next witnessSearch call.
func (w *witScratch) markTarget(node NodeID) { w.verT[node] = w.cur + 1 }

// witnessSearch runs a bounded canonical Dijkstra from u over the
// uncontracted overlay excluding node v, settling at most cap nodes,
// abandoning distances beyond maxD, and stopping early once every
// marked target has settled. Results are read back with settledBetter.
func (st *contractState) witnessSearch(u, v NodeID, maxD float64, cap, targets int) {
	h, w := st.h, &st.wit
	w.cur++
	w.q = w.q[:0]
	w.dist[u], w.tie[u], w.verD[u] = 0, 0, w.cur
	w.q = append(w.q, keyItem{node: u})
	settled := 0
	for len(w.q) > 0 && settled < cap && targets > 0 {
		cur := w.q.pop()
		if w.verS[cur.node] == w.cur {
			continue
		}
		w.verS[cur.node] = w.cur
		settled++
		if w.verT[cur.node] == w.cur {
			targets--
		}
		if cur.dist > maxD {
			break
		}
		for _, ei := range st.outAdj[cur.node] {
			e := &h.edges[ei]
			if e.to == v || st.contracted[e.to] {
				continue
			}
			nd := cur.dist + e.d
			if nd > maxD {
				continue
			}
			nt := cur.tie + e.t
			if w.verD[e.to] == w.cur && !keyLess(nd, nt, w.dist[e.to], w.tie[e.to]) {
				continue
			}
			w.dist[e.to], w.tie[e.to], w.verD[e.to] = nd, nt, w.cur
			w.q.push(keyItem{node: e.to, dist: nd, tie: nt})
		}
	}
}

// settledBetter reports whether the last witness search definitively
// found a path to w with key strictly less than (viaD, viaT). Only
// settled nodes count: a tentative distance could still shrink, and an
// exhausted budget must not suppress a needed shortcut.
func (w *witScratch) settledBetter(node NodeID, viaD float64, viaT uint64) bool {
	return w.verS[node] == w.cur && keyLess(w.dist[node], w.tie[node], viaD, viaT)
}

// nodeOrderItem / nodePQ: the lazy contraction-order queue.
type nodeOrderItem struct {
	pri  int32
	node NodeID
}

type nodePQ []nodeOrderItem

func (q nodePQ) Len() int { return len(q) }
func (q nodePQ) Less(i, j int) bool {
	if q[i].pri != q[j].pri {
		return q[i].pri < q[j].pri
	}
	return q[i].node < q[j].node
}
func (q nodePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x interface{}) { *q = append(*q, x.(nodeOrderItem)) }
func (q *nodePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// buildQueryGraph splits edges into the upward (forward-search) or
// downward (backward-search) CSR by endpoint rank. Only the minimum-
// key edge of each (from, to) pair enters the query graph — dominated
// parallels (shortcuts superseded by better later shortcuts, or base
// edges beaten by a two-hop path) cannot lie on a canonical path, and
// dropping them here reproduces exactly the live-overlay set the
// contraction ended with, for built and loaded hierarchies alike.
// Dominated edges stay in h.edges: shortcut unpacking may still
// reference them as children. Edge indices are laid down in index
// order, so per-node adjacency is deterministic.
func (h *Hierarchy) buildQueryGraph() {
	n := h.net.NumNodes()
	live := make(map[uint64]int32, len(h.edges))
	for i := range h.edges {
		e := &h.edges[i]
		k := uint64(uint32(e.from))<<32 | uint64(uint32(e.to))
		if j, ok := live[k]; !ok || keyLess(e.d, e.t, h.edges[j].d, h.edges[j].t) {
			live[k] = int32(i)
		}
	}
	isLive := make([]bool, len(h.edges))
	for _, i := range live {
		isLive[i] = true
	}
	h.upOff = make([]int32, n+1)
	h.downOff = make([]int32, n+1)
	for i := range h.edges {
		if !isLive[i] {
			continue
		}
		e := &h.edges[i]
		if h.rank[e.from] < h.rank[e.to] {
			h.upOff[e.from+1]++
		} else {
			h.downOff[e.to+1]++
		}
	}
	for v := 0; v < n; v++ {
		h.upOff[v+1] += h.upOff[v]
		h.downOff[v+1] += h.downOff[v]
	}
	h.upAdj = make([]int32, h.upOff[n])
	h.downAdj = make([]int32, h.downOff[n])
	upCur := append([]int32(nil), h.upOff[:n]...)
	downCur := append([]int32(nil), h.downOff[:n]...)
	for i := range h.edges {
		if !isLive[i] {
			continue
		}
		e := &h.edges[i]
		if h.rank[e.from] < h.rank[e.to] {
			h.upAdj[upCur[e.from]] = int32(i)
			upCur[e.from]++
		} else {
			h.downAdj[downCur[e.to]] = int32(i)
			downCur[e.to]++
		}
	}
}

// chLabel is one node's half of a CH query: every node its upward
// (forward) or downward (backward) search settles without stalling,
// with canonical search keys and parent edges, sorted by node id. A
// pairwise query is then one merge-intersection of two labels — lazy
// hub labeling. Labels are immutable once built; the Router caches
// them per node, which turns the k×k routed-transition pattern of HMM
// matching into ~2k label builds plus k² cheap merges instead of k²
// full bidirectional searches.
type chLabel struct {
	nodes []NodeID
	d     []float64
	t     []uint64
	par   []int32 // edge index into h.edges reaching nodes[i]; -1 at the root
}

func (l *chLabel) Len() int { return len(l.nodes) }
func (l *chLabel) Less(i, j int) bool {
	return l.nodes[i] < l.nodes[j]
}
func (l *chLabel) Swap(i, j int) {
	l.nodes[i], l.nodes[j] = l.nodes[j], l.nodes[i]
	l.d[i], l.d[j] = l.d[j], l.d[i]
	l.t[i], l.t[j] = l.t[j], l.t[i]
	l.par[i], l.par[j] = l.par[j], l.par[i]
}

// find locates a node in the sorted label; every parent-chain node of a
// labeled node is itself labeled (only non-stalled settled nodes relax),
// so lookups during path unpacking always hit.
func (l *chLabel) find(n NodeID) int {
	lo, hi := 0, len(l.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.nodes[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// labelScratch holds pooled label-build search state. CH search spaces
// are tiny (upward cones), so maps beat O(n) arrays here.
type labelScratch struct {
	dist map[NodeID]float64
	tie  map[NodeID]uint64
	par  map[NodeID]int32
	done map[NodeID]bool
	q    keyPQ
}

func (h *Hierarchy) getScratch() *labelScratch {
	if s, ok := h.pool.Get().(*labelScratch); ok {
		clear(s.dist)
		clear(s.tie)
		clear(s.par)
		clear(s.done)
		s.q = s.q[:0]
		return s
	}
	return &labelScratch{
		dist: map[NodeID]float64{},
		tie:  map[NodeID]uint64{},
		par:  map[NodeID]int32{},
		done: map[NodeID]bool{},
	}
}

// buildLabel runs one exhaustive rank-ascending search from root and
// returns its label. Forward labels follow upAdj (edges toward higher
// rank); backward labels follow downAdj in reverse (nodes that reach
// the root by descending). The d-bound is slackened by a hair: search
// keys accumulate in shortcut-tree order and may differ from the exact
// left-to-right fold in the last ulps, so admission is loose here and
// the exact recomputed distance decides reachability per query.
//
// Stall-on-demand: a node with a strictly better path arriving by
// descending from a higher-ranked labeled node cannot lie on any
// canonical up-down path, so it is settled but kept out of the label
// and never relaxed — the pruning that keeps labels small on grid
// networks. Dropping stalled nodes is safe for meets too: a candidate
// through one is a real path with key ≥ the canonical key, and the
// canonical path's own apex never stalls (stalling evidence would
// compose to a path with a smaller key — a contradiction).
func (h *Hierarchy) buildLabel(root NodeID, forward bool, maxDist float64) *chLabel {
	s := h.getScratch()
	defer h.pool.Put(s)
	bound := maxDist * (1 + 1e-9)
	s.dist[root], s.tie[root], s.par[root] = 0, 0, -1
	s.q = append(s.q, keyItem{node: root})
	lab := &chLabel{}
	settled := 0
	for len(s.q) > 0 {
		cur := s.q.pop()
		if s.done[cur.node] {
			continue
		}
		s.done[cur.node] = true
		settled++

		var opp, adj []int32
		if forward {
			opp = h.downAdj[h.downOff[cur.node]:h.downOff[cur.node+1]]
			adj = h.upAdj[h.upOff[cur.node]:h.upOff[cur.node+1]]
		} else {
			opp = h.upAdj[h.upOff[cur.node]:h.upOff[cur.node+1]]
			adj = h.downAdj[h.downOff[cur.node]:h.downOff[cur.node+1]]
		}
		stalled := false
		for _, ei := range opp {
			e := &h.edges[ei]
			y := e.from
			if !forward {
				y = e.to
			}
			if yd, ok := s.dist[y]; ok && keyLess(yd+e.d, s.tie[y]+e.t, cur.dist, cur.tie) {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		lab.nodes = append(lab.nodes, cur.node)
		lab.d = append(lab.d, cur.dist)
		lab.t = append(lab.t, cur.tie)
		lab.par = append(lab.par, s.par[cur.node])

		for _, ei := range adj {
			e := &h.edges[ei]
			next := e.to
			if !forward {
				next = e.from
			}
			nd := cur.dist + e.d
			if nd > bound {
				continue
			}
			nt := cur.tie + e.t
			if od, ok := s.dist[next]; ok && !keyLess(nd, nt, od, s.tie[next]) {
				continue
			}
			s.dist[next], s.tie[next], s.par[next] = nd, nt, ei
			s.q.push(keyItem{node: next, dist: nd, tie: nt})
		}
	}
	obsCHSettled.Add(int64(settled))
	sort.Sort(lab)
	return lab
}

// labelMeet merge-intersects a forward and a backward label and returns
// the indices of the canonical meet — the node minimizing the combined
// (dist, tie) key. ok=false means the labels share no node, i.e. the
// target is unreachable within the labels' bound. Splits of the same
// canonical path at different meets differ only in the last ulps of the
// combined search key and unpack to the same segment sequence, so any
// winner yields the exact same result.
func labelMeet(lf, lb *chLabel) (fi, bi int, ok bool) {
	bestD, bestT := math.Inf(1), ^uint64(0)
	fi, bi = -1, -1
	i, j := 0, 0
	for i < len(lf.nodes) && j < len(lb.nodes) {
		a, b := lf.nodes[i], lb.nodes[j]
		switch {
		case a == b:
			if cd, ct := lf.d[i]+lb.d[j], lf.t[i]+lb.t[j]; keyLess(cd, ct, bestD, bestT) {
				bestD, bestT, fi, bi = cd, ct, i, j
			}
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return fi, bi, fi >= 0
}

// expandEdge emits the original segments of an edge left to right,
// recursively unpacking shortcuts.
func (h *Hierarchy) expandEdge(ei int32, fn func(SegmentID)) {
	e := &h.edges[ei]
	if e.seg >= 0 {
		fn(SegmentID(e.seg))
		return
	}
	h.expandEdge(e.a, fn)
	h.expandEdge(e.b, fn)
}

// walkLabels emits the full canonical path in forward order, one
// original segment at a time, by following parent chains out from the
// meet in both labels.
func (h *Hierarchy) walkLabels(lf, lb *chLabel, fi, bi int, fn func(SegmentID)) {
	// Forward half: parent edges lead meet -> root; collect and reverse.
	var stack [64]int32
	chain := stack[:0]
	for i := fi; lf.par[i] >= 0; {
		ei := lf.par[i]
		chain = append(chain, ei)
		i = lf.find(h.edges[ei].from)
	}
	for k := len(chain) - 1; k >= 0; k-- {
		h.expandEdge(chain[k], fn)
	}
	// Backward half: parent edges already point along travel direction.
	for j := bi; lb.par[j] >= 0; {
		ei := lb.par[j]
		h.expandEdge(ei, fn)
		j = lb.find(h.edges[ei].to)
	}
}

// distLabels returns the canonical shortest-path distance between the
// labels' roots without materializing the path: the unpacked segments
// are folded left to right, reproducing the flat Dijkstra's
// dist[v] = dist[u] + len accumulation bit for bit.
func (h *Hierarchy) distLabels(lf, lb *chLabel, maxDist float64) (float64, bool) {
	obsCHQueries.Inc()
	fi, bi, ok := labelMeet(lf, lb)
	if !ok {
		return 0, false
	}
	d := 0.0
	h.walkLabels(lf, lb, fi, bi, func(sid SegmentID) { d += h.net.Segment(sid).Length })
	if d > maxDist {
		return 0, false
	}
	return d, true
}

// pathLabels returns the canonical shortest path, with pad unset slots
// on either side of it, and its distance.
func (h *Hierarchy) pathLabels(lf, lb *chLabel, maxDist float64, pad int) ([]SegmentID, float64, bool) {
	obsCHQueries.Inc()
	fi, bi, ok := labelMeet(lf, lb)
	if !ok {
		return nil, 0, false
	}
	segs := make([]SegmentID, pad)
	d := 0.0
	h.walkLabels(lf, lb, fi, bi, func(sid SegmentID) {
		segs = append(segs, sid)
		d += h.net.Segment(sid).Length
	})
	if d > maxDist {
		return nil, 0, false
	}
	return append(segs, make([]SegmentID, pad)...), d, true
}

// shortcutRecord is the serializable form of one shortcut: endpoints
// plus child edge indices into the deterministic edge numbering (base
// edges in baseEdges order, then shortcuts in creation order). Keys are
// recomputed from children on load.
type shortcutRecord struct {
	From, To NodeID
	A, B     int32
}

// Shortcuts returns the hierarchy's shortcut records in creation order.
func (h *Hierarchy) Shortcuts() []shortcutRecord {
	recs := make([]shortcutRecord, 0, h.NumShortcuts())
	for i := h.nBase; i < len(h.edges); i++ {
		e := &h.edges[i]
		recs = append(recs, shortcutRecord{From: e.from, To: e.to, A: e.a, B: e.b})
	}
	return recs
}

// Rank returns the contraction order of every node (read-only view).
func (h *Hierarchy) Rank() []int32 { return h.rank }

// hierarchyFromParts reassembles a Hierarchy from its serialized parts:
// the node ranks and the shortcut records. Base edges and all keys are
// rederived from the network, which both keeps the binary format small
// and revalidates it against the network it is loaded with.
func hierarchyFromParts(net *Network, rank []int32, shortcuts []shortcutRecord) (*Hierarchy, error) {
	if len(rank) != net.NumNodes() {
		return nil, fmt.Errorf("roadnet: hierarchy rank count %d does not match %d nodes", len(rank), net.NumNodes())
	}
	h := &Hierarchy{net: net, rank: rank}
	h.edges = baseEdges(net)
	h.nBase = len(h.edges)
	for i, r := range shortcuts {
		n := int32(len(h.edges))
		if r.A < 0 || r.A >= n || r.B < 0 || r.B >= n {
			return nil, fmt.Errorf("roadnet: shortcut %d child out of range", i)
		}
		ea, eb := &h.edges[r.A], &h.edges[r.B]
		if int(r.From) < 0 || int(r.From) >= net.NumNodes() || int(r.To) < 0 || int(r.To) >= net.NumNodes() {
			return nil, fmt.Errorf("roadnet: shortcut %d endpoint out of range", i)
		}
		if ea.from != r.From || ea.to != eb.from || eb.to != r.To {
			return nil, fmt.Errorf("roadnet: shortcut %d children do not chain %d->%d", i, r.From, r.To)
		}
		h.edges = append(h.edges, chEdge{
			from: r.From, to: r.To,
			d: ea.d + eb.d, t: ea.t + eb.t,
			seg: -1, a: r.A, b: r.B,
		})
	}
	h.buildQueryGraph()
	return h, nil
}

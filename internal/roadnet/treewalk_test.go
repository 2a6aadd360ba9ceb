package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// drawTargets picks a random target list for a walk from src: duplicates,
// the source itself and — where the network or the bound leaves some —
// unreachable nodes all occur.
func drawTargets(rng *rand.Rand, n *Network, src NodeID) []NodeID {
	targets := make([]NodeID, 1+rng.Intn(12))
	for i := range targets {
		switch rng.Intn(6) {
		case 0:
			targets[i] = src
		case 1:
			if i > 0 {
				targets[i] = targets[rng.Intn(i)]
				break
			}
			fallthrough
		default:
			targets[i] = NodeID(rng.Intn(n.NumNodes()))
		}
	}
	return targets
}

// checkWalk holds one TreeWalk answer to the reference search from the
// same source: distances bit-equal to the reference tree's (+Inf exactly
// where it reached nothing), every step's (parent, segment) the
// reference parent of its node, parents before children, each node at
// most once, never the source, and exactly the nodes on the paths to the
// reachable targets.
func checkWalk(t *testing.T, what string, n *Network, src NodeID, maxDist float64, targets []NodeID, dist []float64, steps []TreeStep) {
	t.Helper()
	refDist, refParent := refDijkstra(n, src, maxDist)
	want := map[NodeID]bool{}
	for i, v := range targets {
		wd, ok := refDist[v]
		if !ok {
			wd = math.Inf(1)
		}
		if math.Float64bits(dist[i]) != math.Float64bits(wd) {
			t.Fatalf("%s: dist %d->%d = %v, reference %v", what, src, v, dist[i], wd)
		}
		if ok {
			for cur := v; cur != src; cur = n.Segment(refParent[cur]).From {
				want[cur] = true
			}
		}
	}
	seen := map[NodeID]bool{src: true}
	for _, st := range steps {
		if seen[st.Node] {
			t.Fatalf("%s: walk from %d emits node %d twice (or the source)", what, src, st.Node)
		}
		if !seen[st.Parent] {
			t.Fatalf("%s: walk from %d emits node %d before its parent %d", what, src, st.Node, st.Parent)
		}
		seen[st.Node] = true
		if sid, ok := refParent[st.Node]; !ok || sid != st.Seg || n.Segment(sid).From != st.Parent {
			t.Fatalf("%s: step %+v from %d, reference parent segment %d/%v", what, st, src, sid, ok)
		}
		if !want[st.Node] {
			t.Fatalf("%s: walk from %d emits node %d, on no path to %v", what, src, st.Node, targets)
		}
	}
	if len(steps) != len(want) {
		t.Fatalf("%s: walk from %d to %v emits %d nodes, the paths cover %d", what, src, targets, len(steps), len(want))
	}
}

// TreeWalk against the reference search: every source of the lattice,
// jittered-grid and one-way+island fixtures, loose and tight bounds.
func TestTreeWalkMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		net  *Network
		opts []RouterOption
	}{
		{"exact-tie lattice", buildGrid(t, 7, 6), nil},
		{"jittered grid", buildJittered(t, 9, 9, 0.2, 5), nil},
		{"one-ways and an island", buildOneWay(t), nil},
		{"tight bound on a lattice", buildGrid(t, 7, 6), []RouterOption{WithMaxDist(350)}},
		{"tight bound on a jittered grid", buildJittered(t, 9, 9, 0.2, 5), []RouterOption{WithMaxDist(420)}},
	}
	for _, c := range cases {
		r := NewRouter(c.net, c.opts...)
		rng := rand.New(rand.NewSource(23))
		unreachable, shared := 0, 0
		var steps []TreeStep
		for src := 0; src < c.net.NumNodes(); src++ {
			for trial := 0; trial < 4; trial++ {
				targets := drawTargets(rng, c.net, NodeID(src))
				dist := make([]float64, len(targets))
				// Appending after steps of an earlier walk must leave
				// them alone.
				keep := len(steps)
				before := slices.Clone(steps)
				steps = r.TreeWalk(NodeID(src), targets, dist, steps)
				if !slices.Equal(steps[:keep], before) {
					t.Fatalf("%s: walk from %d rewrote earlier steps", c.name, src)
				}
				checkWalk(t, c.name, c.net, NodeID(src), r.MaxDist(), targets, dist, steps[keep:])
				hops := 0
				for i, d := range dist {
					if math.IsInf(d, 1) {
						unreachable++
					} else if path, _, _ := r.nodePath(NodeID(src), targets[i], 0); slices.Index(targets[:i], targets[i]) < 0 {
						hops += len(path)
					}
				}
				if hops > len(steps)-keep {
					shared++
				}
				if trial%2 == 1 {
					steps = steps[:0]
				}
			}
		}
		if unreachable == 0 && c.name != "exact-tie lattice" && c.name != "jittered grid" {
			t.Errorf("%s: no unreachable target drawn", c.name)
		}
		if shared == 0 {
			t.Errorf("%s: no walk shared a path prefix between two targets", c.name)
		}
	}
}

// Walks from the same and from different sources on several goroutines
// share the router's mark pool and tree cache; every answer must
// equal an unshared router's. Run under -race in CI.
func TestTreeWalkConcurrent(t *testing.T) {
	n := buildJittered(t, 8, 8, 0.1, 3)
	r := NewRouter(n, WithCacheSize(4)) // 64 sources over 4 slots: mostly cold
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := NewRouter(n) // this goroutine's alone
			rng := rand.New(rand.NewSource(int64(g)))
			var steps, wsteps []TreeStep
			for i := 0; i < 60; i++ {
				// Even rounds: every goroutine walks from one source;
				// odd rounds: from its own.
				src := NodeID(i % 64)
				if i%2 == 1 {
					src = NodeID(rng.Intn(64))
				}
				targets := drawTargets(rng, n, src)
				dist, wdist := make([]float64, len(targets)), make([]float64, len(targets))
				steps = r.TreeWalk(src, targets, dist, steps[:0])
				wsteps = want.TreeWalk(src, targets, wdist, wsteps[:0])
				if !slices.Equal(dist, wdist) || !slices.Equal(steps, wsteps) {
					t.Errorf("walk %d->%v: got %v %v, want %v %v", src, targets, dist, steps, wdist, wsteps)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Racing extensions: on a fresh router the goroutines share one
	// source's small tree, then each extends it to its own far targets,
	// disjoint from the others'. Every answer must equal an unshared
	// router's, and the tree left cached must cover every goroutine's
	// targets: of two racing extensions the slot keeps the longer prefix,
	// which contains the shorter.
	for src := NodeID(0); src < 64; src += 7 {
		r := NewRouter(n)
		dist, parent := refDijkstra(n, src, r.MaxDist())
		order := refOrder(n, src, dist, parent)
		near := []NodeID{order[min(3, len(order)-1)]}
		far := order[len(order)-12:]
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				want := NewRouter(n)
				var targets []NodeID
				for i := g; i < len(far); i += 4 {
					targets = append(targets, far[i])
				}
				for _, tg := range [][]NodeID{near, targets} {
					d, wd := make([]float64, len(tg)), make([]float64, len(tg))
					steps := r.TreeWalk(src, tg, d, nil)
					wsteps := want.TreeWalk(src, tg, wd, nil)
					if !slices.Equal(d, wd) || !slices.Equal(steps, wsteps) {
						t.Errorf("extension race from %d to %v: got %v %v, want %v %v", src, tg, d, steps, wd, wsteps)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		r.mu.Lock()
		e := r.entries[r.cache[src]]
		r.mu.Unlock()
		if !e.tree.covers(e.last, far, make([]int32, len(far))) || !e.tree.covers(e.last, near, make([]int32, len(near))) {
			t.Errorf("extension race from %d: the cached tree (ending at %d) dropped a target of %v", src, e.last, far)
		}
	}
}

// A warm flat walk allocates nothing once the caller's step buffer has
// grown.
func TestTreeWalkNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	n := buildGrid(t, 12, 12)
	r := NewRouter(n)
	targets := []NodeID{143, 77, 5, 5, 0, 130}
	dist := make([]float64, len(targets))
	steps := r.TreeWalk(0, targets, dist, nil)
	if allocs := testing.AllocsPerRun(100, func() { steps = r.TreeWalk(0, targets, dist, steps[:0]) }); allocs != 0 {
		t.Errorf("warm TreeWalk allocates %.1f objects, want 0", allocs)
	}
}

// When the walk's epoch counter is about to wrap, the marks are cleared
// rather than trusted: stale marks equal to the restarted epoch would
// otherwise cut climbs short.
func TestTreeWalkEpochWrap(t *testing.T) {
	n := buildGrid(t, 6, 6)
	r := NewRouter(n)
	stale := &walkScratch{mark: make([]uint32, n.NumNodes()), epoch: math.MaxUint32}
	for i := range stale.mark {
		stale.mark[i] = 1
	}
	r.walks.Put(stale) // the next walk on this goroutine normally draws it
	targets := []NodeID{35, 20, 7}
	dist := make([]float64, len(targets))
	steps := r.TreeWalk(0, targets, dist, nil)
	checkWalk(t, "wrapped epoch", n, 0, r.MaxDist(), targets, dist, steps)
}

// refOrder is the reference search's settle order from src: the reached
// nodes sorted by the canonical (dist, tie, node) key, with each tie the
// sum of segTie along the reference parent path.
func refOrder(n *Network, src NodeID, dist map[NodeID]float64, parent map[NodeID]SegmentID) []NodeID {
	var tie func(v NodeID) uint64
	tie = func(v NodeID) uint64 {
		if v == src {
			return 0
		}
		return tie(n.Segment(parent[v]).From) + segTie(parent[v])
	}
	items := make([]keyItem, 0, len(dist))
	for v, d := range dist {
		items = append(items, keyItem{node: v, dist: d, tie: tie(v)})
	}
	slices.SortFunc(items, func(a, b keyItem) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	order := make([]NodeID, len(items))
	for i, it := range items {
		order[i] = it.node
	}
	return order
}

// Bounded trees against the reference search. On each fixture one router
// answers a seeded random sequence of NodeDist, nodePath and TreeWalk
// queries from a few repeating sources, so cached trees get hit and
// extended, with targets that mix near and far nodes, unreachable ones,
// duplicates and the source itself. Every answer equals the reference;
// after every query the source's cached tree holds exactly a prefix of
// the reference settle order (all of it once done) with reference dist
// bits and parents, and still holds every node the tree it replaced had
// settled.
func TestBoundedTreesMatchReference(t *testing.T) {
	cases := []struct {
		name string
		net  *Network
		opts []RouterOption
	}{
		{"exact-tie lattice", buildGrid(t, 7, 6), nil},
		{"jittered grid", buildJittered(t, 9, 9, 0.2, 5), nil},
		{"one-ways and an island", buildOneWay(t), nil},
		{"tight bound on a lattice", buildGrid(t, 7, 6), []RouterOption{WithMaxDist(350)}},
		{"tight bound on a jittered grid", buildJittered(t, 9, 9, 0.2, 5), []RouterOption{WithMaxDist(420)}},
		{"three slots on a jittered grid", buildJittered(t, 9, 9, 0.2, 5), []RouterOption{WithCacheSize(3)}},
	}
	type reference struct {
		dist   map[NodeID]float64
		parent map[NodeID]SegmentID
		order  []NodeID // settle order
		rank   map[NodeID]int
	}
	for _, c := range cases {
		r := NewRouter(c.net, c.opts...)
		nodes := c.net.NumNodes()
		refs := map[NodeID]*reference{}
		refOf := func(src NodeID) *reference {
			if ref := refs[src]; ref != nil {
				return ref
			}
			dist, parent := refDijkstra(c.net, src, r.MaxDist())
			ref := &reference{dist: dist, parent: parent, order: refOrder(c.net, src, dist, parent), rank: map[NodeID]int{}}
			for i, v := range ref.order {
				ref.rank[v] = i
			}
			refs[src] = ref
			return ref
		}
		cached := func(src NodeID) (*ssspResult, int32) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if i, ok := r.cache[src]; ok {
				return r.entries[i].tree, r.entries[i].last
			}
			return nil, -1
		}
		rng := rand.New(rand.NewSource(29))
		sources := make([]NodeID, 5)
		for i := range sources {
			sources[i] = NodeID(rng.Intn(nodes))
		}
		// target draws one node for a query from src.
		target := func(src NodeID, ref *reference) NodeID {
			reached := len(ref.order)
			switch rng.Intn(8) {
			case 0:
				return src
			case 1, 2: // near: the first quarter of the settle order
				return ref.order[rng.Intn((reached+3)/4)]
			case 3, 4: // far: the last quarter
				return ref.order[reached-1-rng.Intn((reached+3)/4)]
			case 5: // unreachable, where the network or the bound leaves any
				if reached < nodes {
					for {
						if v := NodeID(rng.Intn(nodes)); ref.rank[v] == 0 && v != src {
							return v
						}
					}
				}
			}
			return NodeID(rng.Intn(nodes))
		}
		hits, extensions, unreachable, partial := 0, 0, 0, 0
		island := false // some source leaves a node unreached
		var steps []TreeStep
		for q := 0; q < 600; q++ {
			src := sources[rng.Intn(len(sources))]
			if rng.Intn(6) == 0 {
				src = NodeID(rng.Intn(nodes))
			}
			ref := refOf(src)
			island = island || len(ref.order) < nodes
			before, _ := cached(src)
			var targets []NodeID
			what := ""
			switch rng.Intn(3) {
			case 0:
				what = "NodeDist"
				v := target(src, ref)
				targets = []NodeID{v}
				d, ok := r.NodeDist(src, v)
				wd, wok := ref.dist[v]
				if ok != wok || math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("%s: NodeDist(%d,%d) = %v/%v, reference %v/%v", c.name, src, v, d, ok, wd, wok)
				}
			case 1:
				what = "nodePath"
				v := target(src, ref)
				targets = []NodeID{v}
				path, d, ok := r.nodePath(src, v, 0)
				wd, wok := ref.dist[v]
				var wpath []SegmentID
				if wok && v != src {
					wpath = refPath(c.net, ref.parent, src, v)
				}
				if ok != wok || math.Float64bits(d) != math.Float64bits(wd) || !slices.Equal(path, wpath) {
					t.Fatalf("%s: nodePath(%d,%d) = %v %v/%v, reference %v %v/%v", c.name, src, v, path, d, ok, wpath, wd, wok)
				}
			default:
				what = "TreeWalk"
				targets = make([]NodeID, 1+rng.Intn(10))
				for i := range targets {
					if i > 0 && rng.Intn(5) == 0 {
						targets[i] = targets[rng.Intn(i)] // duplicate
					} else {
						targets[i] = target(src, ref)
					}
				}
				dist := make([]float64, len(targets))
				steps = r.TreeWalk(src, targets, dist, steps[:0])
				checkWalk(t, c.name, c.net, src, r.MaxDist(), targets, dist, steps)
			}
			for _, v := range targets {
				if _, ok := ref.dist[v]; !ok {
					unreachable++
				}
			}

			after, last := cached(src)
			if after == nil {
				continue // every target was the source: no tree was needed
			}
			if after == before {
				hits++
			} else if before != nil {
				extensions++
			}
			checkTree(t, c.name, c.net, src, after)
			finite := 0
			for v := 0; v < nodes; v++ {
				d, parent := after.at(NodeID(v))
				if math.IsInf(d, 1) {
					if parent != -1 {
						t.Fatalf("%s: %s from %d: unsettled node %d has parent %d", c.name, what, src, v, parent)
					}
					if before != nil && before.entry(NodeID(v)) >= 0 {
						t.Fatalf("%s: %s from %d: the new tree lost node %d", c.name, what, src, v)
					}
					continue
				}
				finite++
				wd, ok := ref.dist[NodeID(v)]
				if !ok || math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("%s: %s from %d: cached dist[%d] = %v, reference %v/%v", c.name, what, src, v, d, wd, ok)
				}
				if NodeID(v) != src && SegmentID(parent) != ref.parent[NodeID(v)] {
					t.Fatalf("%s: %s from %d: cached parent[%d] = %d, reference %d", c.name, what, src, v, parent, ref.parent[NodeID(v)])
				}
			}
			if len(after.node) != finite {
				t.Fatalf("%s: %s from %d: tree holds %d entries for %d settled nodes", c.name, what, src, len(after.node), finite)
			}
			// The finite entries are the first nodes of the settle order,
			// ending at the search's last node, or all of it once exhausted.
			for _, v := range ref.order[:finite] {
				if after.entry(v) < 0 {
					t.Fatalf("%s: %s from %d: tree holds %d nodes but not node %d, %dth in the settle order", c.name, what, src, finite, v, ref.rank[v])
				}
			}
			switch {
			case last < 0 && finite != len(ref.order):
				t.Fatalf("%s: %s from %d: exhausted tree holds %d of %d reached nodes", c.name, what, src, finite, len(ref.order))
			case last >= 0 && NodeID(last) != ref.order[finite-1]:
				t.Fatalf("%s: %s from %d: tree of %d nodes ends at %d, the settle order at %d", c.name, what, src, finite, last, ref.order[finite-1])
			}
			if !after.covers(last, targets, make([]int32, len(targets))) {
				t.Fatalf("%s: %s from %d: cached tree does not cover %v", c.name, what, src, targets)
			}
			if last >= 0 {
				partial++
			}
		}
		if hits == 0 || extensions == 0 || island && unreachable == 0 || partial == 0 {
			t.Errorf("%s: %d hits, %d extensions, %d unreachable targets, %d partial trees: the sequence misses a case",
				c.name, hits, extensions, unreachable, partial)
		}
	}
}

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
// jittered-grid and one-way+island fixtures, loose and tight bounds,
// flat and with a hierarchy attached.
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
		for _, mode := range []string{"flat", "hierarchy"} {
			opts := c.opts
			if mode == "hierarchy" {
				opts = append(opts[:len(opts):len(opts)], WithHierarchy(BuildHierarchy(c.net)))
			}
			r := NewRouter(c.net, opts...)
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
						t.Fatalf("%s/%s: walk from %d rewrote earlier steps", c.name, mode, src)
					}
					checkWalk(t, c.name+"/"+mode, c.net, NodeID(src), r.MaxDist(), targets, dist, steps[keep:])
					hops := 0
					for i, d := range dist {
						if math.IsInf(d, 1) {
							unreachable++
						} else if path, _, _ := r.NodePath(NodeID(src), targets[i]); slices.Index(targets[:i], targets[i]) < 0 {
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
				t.Errorf("%s/%s: no unreachable target drawn", c.name, mode)
			}
			if shared == 0 {
				t.Errorf("%s/%s: no walk shared a path prefix between two targets", c.name, mode)
			}
		}
	}
}

// Walks from the same and from different sources on several goroutines
// share the router's mark pool, tree cache and labels; every answer must
// equal an unshared router's. Run under -race in CI.
func TestTreeWalkConcurrent(t *testing.T) {
	n := buildJittered(t, 8, 8, 0.1, 3)
	for _, mode := range []string{"flat", "hierarchy"} {
		opts := []RouterOption{WithCacheSize(4)} // 64 sources over 4 slots: mostly cold
		if mode == "hierarchy" {
			opts = append(opts, WithHierarchy(BuildHierarchy(n)))
		}
		r := NewRouter(n, opts...)
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
						t.Errorf("%s: walk %d->%v: got %v %v, want %v %v", mode, src, targets, dist, steps, wdist, wsteps)
						return
					}
				}
			}(g)
		}
		wg.Wait()
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

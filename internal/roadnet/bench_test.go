package roadnet

import (
	"math/rand"
	"testing"
)

// Ablation bench (DESIGN.md §6): the many-to-many shortest-path cache.
// Map matching queries repeat source nodes heavily; the CLOCK cache of SSSP
// trees turns repeated searches into lookups.

func benchQueries(n *Network, rng *rand.Rand, count int) [][2]NodeID {
	qs := make([][2]NodeID, count)
	// Cluster sources to mimic candidate sets (few sources, many
	// targets).
	sources := make([]NodeID, 8)
	for i := range sources {
		sources[i] = NodeID(rng.Intn(n.NumNodes()))
	}
	for i := range qs {
		qs[i] = [2]NodeID{
			sources[rng.Intn(len(sources))],
			NodeID(rng.Intn(n.NumNodes())),
		}
	}
	return qs
}

func BenchmarkRouterCached(b *testing.B) {
	n := buildGrid(b, 30, 30)
	r := NewRouter(n, WithCacheSize(1024))
	qs := benchQueries(n, rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r.NodeDist(q[0], q[1])
	}
}

// BenchmarkRouterCachedParallel is BenchmarkRouterCached from every P
// at once, as a batch match's helper walks trees while its caller's
// shortcut pass routes: the hits share the cache's lock.
func BenchmarkRouterCachedParallel(b *testing.B) {
	n := buildGrid(b, 30, 30)
	r := NewRouter(n, WithCacheSize(1024))
	qs := benchQueries(n, rand.New(rand.NewSource(1)), 1024)
	for _, q := range qs {
		r.NodeDist(q[0], q[1])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			q := qs[i%len(qs)]
			r.NodeDist(q[0], q[1])
		}
	})
}

// BenchmarkRouterUncached runs one search per query: a search stops at
// its target, so each settles the nodes nearer its source than a random
// target on the grid, about half of them on average.
func BenchmarkRouterUncached(b *testing.B) {
	n := buildGrid(b, 30, 30)
	// Capacity 1 with alternating sources defeats the cache.
	r := NewRouter(n, WithCacheSize(1))
	qs := benchQueries(n, rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r.NodeDist(q[0], q[1])
		// Evict by querying from a different source.
		r.NodeDist(qs[(i+1)%len(qs)][0], q[1])
	}
}

// BenchmarkTreeWalkCold is the transition step's routing on a cold
// router: one from-candidate's walk to ~30 targets a few hundred meters
// away, as core.foldFeatures asks for them. With no cache every walk
// runs the search, which stops at the farthest target instead of
// settling the whole 40x40 grid.
func BenchmarkTreeWalkCold(b *testing.B) {
	const side = 40
	n := buildGrid(b, side, side)
	r := NewRouter(n, WithCacheSize(0))
	at := func(i, j int) NodeID { return NodeID(j*side + i) }
	src := at(side/2, side/2)
	var targets []NodeID
	for dj := -2; dj <= 3; dj++ {
		for di := -2; di <= 2; di++ {
			targets = append(targets, at(side/2+di, side/2+dj))
		}
	}
	dist := make([]float64, len(targets))
	var steps []TreeStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps = r.TreeWalk(src, targets, dist, steps[:0])
	}
}

func BenchmarkShortestPathWeighted(b *testing.B) {
	n := buildGrid(b, 30, 30)
	rng := rand.New(rand.NewSource(2))
	qs := benchQueries(n, rng, 256)
	weight := func(s *Segment) float64 { return s.Length }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		n.ShortestPathWeighted(q[0], q[1], weight)
	}
}

func BenchmarkSegmentsNear(b *testing.B) {
	n := buildGrid(b, 40, 40)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.Node(NodeID(rng.Intn(n.NumNodes()))).P
		n.SegmentsNear(p, 30)
	}
}

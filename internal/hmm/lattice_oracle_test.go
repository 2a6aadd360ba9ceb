package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// skipArc is an adopted shortcut as the lattice sees it: layers[i-1][u]
// is the pseudo-candidate Algorithm 2 restored between layers[i-2][grand]
// and layers[i][to], the candidate that adopted it.
type skipArc struct{ i, grand, u, to int }

// latticeShortestPath is the recurrence's second formulation: under
// ScoreLogProd, matching is a shortest path over the candidate lattice
// between two virtual terminals. Node 0 is the source, nodes 1… the
// candidates layer by layer, the last node the target. Layer i−1 → layer
// i weighs −accum(P_T·P_O) where the pair is reachable; a candidate no
// predecessor reaches (every candidate of layer 0, and a Viterbi break)
// is entered from the source at −accum(P_O); last layer → target weighs
// 0. Each skip adds its two arcs, grand → u and u → to, weighted the same
// way, and is the only way into and out of its pseudo-candidate u.
// Written against the two models only; it shares no code with the
// matcher. It returns the distance, the chosen candidate per point (−1
// for the points before the path enters from the source), and whether
// that path is the only shortest one.
func latticeShortestPath(t *testing.T, m *Matcher, ct traj.CellTrajectory, layers [][]Candidate, skips []skipArc) (dist float64, path []int, unique bool) {
	t.Helper()
	accum := func(p float64) float64 {
		if p <= 0 {
			return -20
		}
		return math.Max(math.Log(p), -20)
	}
	type edge struct {
		to int
		w  float64
	}
	first := []int{1} // first[i] = node id of layers[i][0]
	for i := range layers {
		first = append(first, first[i]+len(layers[i]))
	}
	target := first[len(layers)]
	adj := make([][]edge, target+1)
	addEdge := func(from, to int, w float64) {
		if !(w >= 0) {
			t.Fatalf("edge %d → %d weighs %v: Dijkstra needs non-negative weights", from, to, w)
		}
		adj[from] = append(adj[from], edge{to, w})
	}
	for i, layer := range layers {
		for k := range layer {
			if layer[k].Pseudo {
				continue
			}
			entered := false
			for j := 0; i > 0 && j < len(layers[i-1]); j++ {
				if layers[i-1][j].Pseudo {
					continue
				}
				if pt, ok := m.Trans.Score(ct, i, &layers[i-1][j], &layer[k]); ok {
					addEdge(first[i-1]+j, first[i]+k, -accum(pt*layer[k].Obs))
					entered = true
				}
			}
			if !entered {
				addEdge(0, first[i]+k, -accum(layer[k].Obs))
			}
			if i == len(layers)-1 {
				addEdge(first[i]+k, target, 0)
			}
		}
	}
	for _, s := range skips {
		grand, u, to := &layers[s.i-2][s.grand], layers[s.i-1][s.u], &layers[s.i][s.to]
		u.Obs = m.Obs.Score(ct, s.i-1, &u)
		p1, ok1 := m.Trans.Score(ct, s.i-1, grand, &u)
		p2, ok2 := m.Trans.Score(ct, s.i, &u, to)
		if !ok1 || !ok2 {
			t.Fatalf("skip %+v: an adopted shortcut is unreachable", s)
		}
		addEdge(first[s.i-2]+s.grand, first[s.i-1]+s.u, -accum(p1*u.Obs))
		addEdge(first[s.i-1]+s.u, first[s.i]+s.to, -accum(p2*to.Obs))
	}
	// Dijkstra with a linear scan; ties settle the lower node id first, so
	// a node's path count is final before it is relaxed from.
	d, prev, count, done := make([]float64, target+1), make([]int, target+1), make([]int, target+1), make([]bool, target+1)
	for v := range d {
		d[v], prev[v] = math.Inf(1), -1
	}
	d[0], count[0] = 0, 1
	for {
		u := -1
		for v := range d {
			if !done[v] && !math.IsInf(d[v], 1) && (u < 0 || d[v] < d[u]) {
				u = v
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range adj[u] {
			switch nd := d[u] + e.w; {
			case done[e.to] && nd < d[e.to]:
				t.Fatalf("node %d settled at %v, reached again at %v: contradictory paths, negative weights?", e.to, d[e.to], nd)
			case nd < d[e.to]:
				d[e.to], prev[e.to], count[e.to] = nd, u, count[u]
			case nd == d[e.to]:
				count[e.to] = min(count[e.to]+count[u], 2)
			}
		}
	}
	path = make([]int, len(layers))
	for i := range path {
		path[i] = -1
	}
	for v, i := prev[target], len(layers)-1; v > 0; v, i = prev[v], i-1 {
		path[i] = v - first[i]
	}
	return d[target], path, count[target] == 1
}

// skipArcs reads the adopted shortcuts off a finished table: each
// pseudo-candidate of layer i-1, its backpointer into layer i-2, and the
// candidate of layer i whose backpointer is it (one per pseudo-candidate
// with one predecessor per candidate).
func skipArcs(t *testing.T, tb table) (skips []skipArc) {
	for i := 2; i < len(tb.layers); i++ {
		for u := range tb.layers[i-1] {
			if !tb.layers[i-1][u].Pseudo {
				continue
			}
			to := slices.Index(tb.pre[i], u)
			if to < 0 {
				t.Fatalf("pseudo-candidate %d of point %d adopted by no candidate of point %d", u, i-1, i)
			}
			skips = append(skips, skipArc{i, tb.pre[i-1][u], u, to})
		}
	}
	return skips
}

// TestMatchIsLatticeShortestPath holds Match (ScoreLogProd) to
// latticeShortestPath: its score is minus the distance, with ==, and
// where the shortest path is unique Match chooses its candidates. First
// with shortcuts off on random lattices, Viterbi breaks included; then
// with one shortcut per candidate over shortcutWorld, where the lattice
// grows by every shortcut the matcher adopted. An adoption raises f[i]
// before point i+1 reads it (Eq. 21), so an adopted skip may carry the
// best path on past it, and the trials must reach such an adoption:
// one the recurrence chains on, which a pass over the finished table
// would leave out of the score.
func TestMatchIsLatticeShortestPath(t *testing.T) {
	// check returns whether the shortest path is unique, how many skips
	// the lattice grew by, whether the unique path takes one, and whether
	// one is chained on.
	check := func(name string, m *Matcher, ct traj.CellTrajectory) (unique bool, nSkips int, skipped, chained bool) {
		t.Helper()
		tb := forwardLattice(t, m, ct)
		skips := skipArcs(t, tb)
		dist, path, unique := latticeShortestPath(t, m, ct, tb.layers, skips)
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		if res.Score != -dist {
			t.Fatalf("%s: Match score %v, lattice shortest path %v (%d skips)", name, res.Score, -dist, len(skips))
		}
		for _, s := range skips {
			// The adopter's score reaches the next point through a
			// backpointer: the skip is chained on.
			if s.i+1 < len(ct) && slices.Contains(tb.pre[s.i+1], s.to) {
				chained = true
			}
		}
		if !unique {
			return false, len(skips), false, chained
		}
		for i, k := range path {
			if k >= 0 && !reflect.DeepEqual(res.Matched[i], tb.layers[i][k]) {
				t.Fatalf("%s: point %d: Match chose %+v, shortest path %+v", name, i, res.Matched[i], tb.layers[i][k])
			}
			skipped = skipped || k >= 0 && tb.layers[i][k].Pseudo
		}
		return true, len(skips), skipped, chained
	}

	rng := rand.New(rand.NewSource(33))
	var uniqueN int
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		w, h := 4+rng.Intn(4), 3+rng.Intn(3)
		net, _ := gridWorld(t, w, h)
		router := roadnet.NewRouter(net, roadnet.WithMaxDist([]float64{320, 30000}[rng.Intn(2)]))
		pts := make([]geo.Point, 3+rng.Intn(7))
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*float64(w-1)*100, rng.Float64()*float64(h-1)*100)
		}
		m := &Matcher{
			Net:    net,
			Router: router,
			Obs:    &GaussianObservation{Net: net, Sigma: []float64{60, 150}[rng.Intn(2)]},
			Trans:  &ExponentialTransition{Router: router, Beta: 200},
			Cfg:    Config{K: 2 + rng.Intn(4), Scoring: ScoreLogProd},
		}
		if u, _, _, _ := check(fmt.Sprintf("trial %d (k %d)", trial, m.Cfg.K), m, trajAlong(pts...)); u {
			uniqueN++
		}
	}
	t.Logf("shortcuts off: %d lattices, %d with a unique shortest path", trials, uniqueN)
	if uniqueN < trials/2 {
		t.Fatalf("fixtures: %d of %d lattices with a unique shortest path; want half", uniqueN, trials)
	}

	rng = rand.New(rand.NewSource(40))
	var withSkips, onPath, chained int
	for trial := 0; trial < 2*trials; trial++ {
		w, h := 7+rng.Intn(4), 2+rng.Intn(3)
		net, spots := shortcutWorld(t, rng, w, h)
		router := roadnet.NewRouter(net, roadnet.WithMaxDist([]float64{450, 900, 30000}[rng.Intn(3)]))
		pts := make([]geo.Point, 4+rng.Intn(8))
		x, y := rng.Float64()*100, float64(h-1)*100-rng.Float64()*60
		for i := range pts {
			pts[i] = geo.Pt(x, y+rng.Float64()*40-20)
			if rng.Float64() < 0.3 {
				pts[i] = spots[rng.Intn(len(spots))]
			}
			x += 60 + rng.Float64()*120
		}
		m := &Matcher{
			Net:    net,
			Router: router,
			Obs:    &GaussianObservation{Net: net, Sigma: []float64{100, 250}[rng.Intn(2)]},
			Trans:  &ExponentialTransition{Router: router, Beta: 200},
			Cfg:    Config{K: 2 + rng.Intn(5), Shortcuts: 1, Scoring: ScoreLogProd},
		}
		_, nSkips, skipped, ch := check(fmt.Sprintf("shortcut trial %d (k %d)", trial, m.Cfg.K), m, trajAlong(pts...))
		if nSkips > 0 {
			withSkips++
		}
		if skipped {
			onPath++
		}
		if ch {
			chained++
		}
	}
	t.Logf("shortcuts on: %d of %d lattices grew by an adopted skip, %d chose one on a unique shortest path, %d chained one on", withSkips, 2*trials, onPath, chained)
	if withSkips == 0 || onPath == 0 || chained == 0 {
		t.Fatal("the shortcut fixtures missed an adoption, one on the path, or one chained on; want all three")
	}
}

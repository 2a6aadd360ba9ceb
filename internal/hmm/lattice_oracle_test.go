package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// latticeShortestPath is the recurrence's second formulation: under
// ScoreLogProd, matching is a shortest path over the candidate lattice
// between two virtual terminals. Node 0 is the source, nodes 1… the
// candidates layer by layer, the last node the target. Source → layer-0
// candidate weighs −accum(P_O), layer i−1 → layer i −accum(P_T·P_O) where
// the pair is reachable, last layer → target 0. Written against the two
// models only; it shares no code with the matcher. It returns the
// distance, the chosen candidate per point, whether that path is the only
// shortest one, and false when some candidate past the first layer has
// no reachable predecessor (a Viterbi break, which this lattice cannot
// express).
func latticeShortestPath(t *testing.T, m *Matcher, ct traj.CellTrajectory, layers [][]Candidate) (dist float64, path []int, unique, ok bool) {
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
			switch {
			case i == 0:
				addEdge(0, first[0]+k, -accum(layer[k].Obs))
			default:
				entered := false
				for j := range layers[i-1] {
					if pt, ok := m.Trans.Score(ct, i, &layers[i-1][j], &layer[k]); ok {
						addEdge(first[i-1]+j, first[i]+k, -accum(pt*layer[k].Obs))
						entered = true
					}
				}
				if !entered {
					return 0, nil, false, false
				}
			}
			if i == len(layers)-1 {
				addEdge(first[i]+k, target, 0)
			}
		}
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
	for v, i := prev[target], len(layers)-1; i >= 0; v, i = prev[v], i-1 {
		path[i] = v - first[i]
	}
	return d[target], path, count[target] == 1, true
}

// TestMatchIsLatticeShortestPath holds Match (ScoreLogProd, shortcuts
// off) to latticeShortestPath on random break-free lattices: its score is
// minus the distance, with ==, and where the shortest path is unique
// Match chooses its candidates.
func TestMatchIsLatticeShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var checked, uniqueN int
	for trial := 0; trial < 150; trial++ {
		w, h := 4+rng.Intn(4), 3+rng.Intn(3)
		net, _ := gridWorld(t, w, h)
		router := roadnet.NewRouter(net, roadnet.WithMaxDist([]float64{320, 30000}[rng.Intn(2)]))
		pts := make([]geo.Point, 3+rng.Intn(7))
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*float64(w-1)*100, rng.Float64()*float64(h-1)*100)
		}
		ct := trajAlong(pts...)
		m := &Matcher{
			Net:    net,
			Router: router,
			Obs:    &GaussianObservation{Net: net, Sigma: []float64{60, 150}[rng.Intn(2)]},
			Trans:  &ExponentialTransition{Router: router, Beta: 200},
			Cfg:    Config{K: 2 + rng.Intn(4), Scoring: ScoreLogProd},
		}
		name := fmt.Sprintf("trial %d (k %d)", trial, m.Cfg.K)
		layers := make([][]Candidate, len(ct))
		for i := range ct {
			layers[i] = m.Obs.Candidates(ct, i, m.Cfg.K)
		}
		dist, path, unique, ok := latticeShortestPath(t, m, ct, layers)
		if !ok {
			continue
		}
		checked++
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		if res.Score != -dist {
			t.Fatalf("%s: Match score %v, lattice shortest path %v", name, res.Score, dist)
		}
		if !unique {
			continue
		}
		uniqueN++
		for i, k := range path {
			if !reflect.DeepEqual(res.Matched[i], layers[i][k]) {
				t.Fatalf("%s: point %d: Match chose %+v, shortest path %+v", name, i, res.Matched[i], layers[i][k])
			}
		}
	}
	t.Logf("%d break-free lattices, %d with a unique shortest path", checked, uniqueN)
	if checked < 50 || uniqueN < checked/2 {
		t.Fatalf("fixtures: %d break-free lattices, %d unique; want ≥ 50 and half unique", checked, uniqueN)
	}
}

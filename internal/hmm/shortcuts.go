package hmm

import (
	"math"
	"sort"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// addShortcuts implements Algorithm 2: for each candidate c_i^k
// (i ≥ 3 in the paper's 1-based indexing), find its best one-hop
// predecessors c_{i-2}^j (Eq. 20), build the shortcut shortest path,
// project x_{i-1} onto it to restore a pseudo-candidate c_{i-1}^u, and
// adopt the shortcut when its score (Eq. 21) beats the current f[c_i^k].
//
// Adopted pseudo-candidates are appended to layer i-1 with their f and
// pre entries, so the backward pass can walk through them.
//
// It returns how many table entries improved (adoptions) and how many
// shortcut constructions were examined (attempts) for telemetry.
func (m *Matcher) addShortcuts(ct traj.CellTrajectory, layers [][]Candidate, f [][]float64, pre [][]int, steps [][][]float64, deg *int64) (adoptions, attempts int) {
	n := len(ct)
	for i := 2; i < n; i++ {
		// A shortcut needs the contiguous chain i-2 → i-1 → i; a dead
		// point anywhere in the window leaves its step table nil (the
		// chain restarted there) and the window is skipped.
		if steps[i] == nil || steps[i-1] == nil {
			continue
		}
		// Pre-compute, per middle candidate l, its best grand-predecessor
		// score: bestTwo[l] pairs with Eq. 20's inner max over j.
		nCur := len(layers[i]) // layers may grow behind us; bound to the original set
		for kk := 0; kk < nCur; kk++ {
			cur := &layers[i][kk]
			if cur.pseudo {
				continue
			}
			preds := m.bestOneHopPredecessors(layers, f, steps, i, kk, m.Cfg.Shortcuts)
			for _, j := range preds {
				attempts++
				grand := &layers[i-2][j]
				route, ok := m.Router.RouteBetween(grand.Pos(), cur.Pos())
				if !ok || len(route.Segs) == 0 {
					continue
				}
				u, ok := m.projectOntoRoute(route, ct[i-1])
				if !ok {
					continue
				}
				u.Obs = m.Obs.Score(ct, i-1, &u)
				w1, ok1 := m.stepScore(ct, i-1, grand, &u, deg)
				w2, ok2 := m.stepScore(ct, i, &u, cur, deg)
				if !ok1 || !ok2 {
					continue
				}
				fPrime := f[i-2][j] + w1 + w2
				if fPrime > f[i][kk] {
					adoptions++
					// Materialize the pseudo-candidate in layer i-1.
					layers[i-1] = append(layers[i-1], u)
					f[i-1] = append(f[i-1], f[i-2][j]+w1)
					pre[i-1] = append(pre[i-1], j)
					f[i][kk] = fPrime
					pre[i][kk] = len(layers[i-1]) - 1
				}
			}
		}
	}
	return adoptions, attempts
}

// bestOneHopPredecessors returns the indices (into layers[i-2]) of the
// top-K grand-predecessors of layers[i][k] by the two-step score of
// Eq. 20, maximizing over the middle candidate l. When every middle
// transition is unreachable (the degenerate unqualified-set case the
// shortcut exists for), it falls back to ranking grand-predecessors by
// their accumulated Viterbi score.
func (m *Matcher) bestOneHopPredecessors(layers [][]Candidate, f [][]float64, steps [][][]float64, i, k, topK int) []int {
	type scored struct {
		j int
		s float64
	}
	var out []scored
	for j := range layers[i-2] {
		if layers[i-2][j].pseudo || j >= len(steps[i-1]) {
			continue
		}
		best := math.Inf(-1)
		// steps only covers the original candidate sets; pseudo rows
		// appended later are beyond its bounds and skipped.
		for l := range steps[i-1][j] {
			w1 := steps[i-1][j][l]
			if math.IsNaN(w1) || l >= len(steps[i]) {
				continue
			}
			w2 := steps[i][l][k]
			if math.IsNaN(w2) {
				continue
			}
			if s := w1 + w2; s > best {
				best = s
			}
		}
		if !math.IsInf(best, -1) {
			out = append(out, scored{j, best})
		}
	}
	if len(out) == 0 {
		for j := range layers[i-2] {
			if !layers[i-2][j].pseudo && !math.IsInf(f[i-2][j], -1) {
				out = append(out, scored{j, f[i-2][j]})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].s > out[b].s })
	if topK > len(out) {
		topK = len(out)
	}
	idx := make([]int, topK)
	for i := 0; i < topK; i++ {
		idx[i] = out[i].j
	}
	return idx
}

// projectOntoRoute finds the segment of the route closest to the
// trajectory point and returns it as a pseudo-candidate (the projected
// road c_{i-1}^u of §IV-E2).
func (m *Matcher) projectOntoRoute(route roadnet.Route, p traj.CellPoint) (Candidate, bool) {
	best := Candidate{pseudo: true}
	bestD := math.Inf(1)
	for _, sid := range route.Segs {
		proj, frac := m.Net.Project(sid, p.P)
		if d := proj.Dist(p.P); d < bestD {
			bestD = d
			best.Seg = sid
			best.Frac = frac
			best.Proj = proj
			best.Dist = d
		}
	}
	if math.IsInf(bestD, 1) {
		return Candidate{}, false
	}
	return best, true
}

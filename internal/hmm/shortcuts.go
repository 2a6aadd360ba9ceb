package hmm

import (
	"math"
	"sort"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// shortcutStats counts what Algorithm 2 did in one window, or summed
// over a match: the telemetry both matchers flush, and what the oracle
// test asserts its fixtures reached.
type shortcutStats struct {
	attempts  int // shortcut constructions examined
	scored    int // attempts projected off layer i-1's own roads, scored through the models
	adoptions int // table entries improved
	ties      int // candidates whose Eq. 20 winner was tied and went to the full ranking
}

func (s *shortcutStats) add(o shortcutStats) {
	s.attempts += o.attempts
	s.scored += o.scored
	s.adoptions += o.adoptions
	s.ties += o.ties
}

// flush adds the counts to the matcher's telemetry.
func (s shortcutStats) flush() {
	obsShortcutTries.Add(int64(s.attempts))
	obsShortcutAdopt.Add(int64(s.adoptions))
	obsShortcutCalls.Add(int64(s.scored))
}

// addShortcuts is Algorithm 2's window at point i (i ≥ 3 in the paper's
// 1-based indexing), run by advance right after the recurrence formed
// f[i]: for each candidate c_i^k, find its best one-hop predecessors
// c_{i-2}^j (Eq. 20), build the shortcut shortest path, project x_{i-1}
// onto it to restore a pseudo-candidate c_{i-1}^u, and adopt the
// shortcut when its score (Eq. 21) beats f[c_i^k]. An adopted score is
// what point i+1's recurrence reads, so a shortcut can redirect
// everything after it. The window reads only f[i-2], steps[i-1] and
// steps[i]; it writes only layer i-1 (an append) and f[i]/pre[i].
//
// Adopted pseudo-candidates are appended to layer i-1 with their f and
// pre entries, so the backward pass can walk through them.
//
// The window does no work the recurrence already did (DESIGN §8b). The
// projected road is usually one of layer i-1's own candidates, the same
// (Seg, Frac) out of the same Net.Project; its observation score and
// both step scores are then the entries fillSteps wrote, since a model
// is a pure function of its arguments (see ObservationModel.Score and
// TransitionModel.Score), and recur has already weighed that path, so
// the attempt ends there. Only a road outside the layer is scored. And
// with one predecessor per candidate (Cfg.Shortcuts == 1) Eq. 20's
// argmax comes from per-column maxima of the two step tables (colTops)
// instead of a k×k scan and a sort per candidate.
func (m *Matcher) addShortcuts(ct traj.CellTrajectory, t *table, i int, deg *int64) (st shortcutStats) {
	layers, f, pre, steps := t.layers, t.f, t.pre, t.steps
	var one [1]int
	single := m.Cfg.Shortcuts == 1 // the paper's choice, and the default
	if single {
		t.tops.fill(steps[i-1], len(steps[i]))
	}
	// Layer i-1 grows behind us; the step tables cover, and the loops
	// stay within, its own candidates. Layer i holds only its own.
	nMid := len(steps[i])
	for kk := range layers[i] {
		cur := &layers[i][kk]
		var preds []int
		win, unique := -1, false
		if single {
			win, unique = t.tops.winner(steps[i], kk)
		}
		if unique {
			one[0] = win
			preds = one[:]
		} else {
			// More than one predecessor asked for (Fig. 9), an exact
			// tie (the ranking's sort order decides, and every digest
			// pins it), or no reachable pair (the ranking falls back to
			// f[i-2]).
			if win >= 0 {
				st.ties++
			}
			preds = m.bestOneHopPredecessors(layers, f, steps, i, kk, m.Cfg.Shortcuts)
		}
		for _, j := range preds {
			st.attempts++
			grand := &layers[i-2][j]
			route, ok := m.Router.RouteBetween(grand.Pos(), cur.Pos())
			if !ok || len(route.Segs) == 0 {
				continue
			}
			u, ok := m.projectOntoRoute(route, ct[i-1])
			if !ok {
				continue
			}
			// A road of layer i-1's own is a path the recurrence already
			// took: f[i-1][l] ≥ f[i-2][j] + w1 and f[i][k] ≥ f[i-1][l] + w2,
			// rounding included, so the shortcut cannot win.
			if indexOfRoad(layers[i-1][:nMid], &u) >= 0 {
				continue
			}
			st.scored++
			u.Obs = m.Obs.Score(ct, i-1, &u)
			if math.IsNaN(u.Obs) || math.IsInf(u.Obs, 0) {
				// Degraded mode, as for a layer's own candidates.
				u.Obs = m.fallbackObs(u.Dist)
				*deg++
			}
			w1, ok1 := m.stepScore(ct, i-1, grand, &u, deg)
			w2, ok2 := m.stepScore(ct, i, &u, cur, deg)
			if !ok1 || !ok2 {
				continue
			}
			fPrime := f[i-2][j] + w1 + w2
			if fPrime > f[i][kk] {
				st.adoptions++
				// Materialize the pseudo-candidate in layer i-1.
				layers[i-1] = append(layers[i-1], u)
				f[i-1] = append(f[i-1], f[i-2][j]+w1)
				pre[i-1] = append(pre[i-1], j)
				f[i][kk] = fPrime
				pre[i][kk] = len(layers[i-1]) - 1
			}
		}
	}
	return st
}

// indexOfRoad returns the index of the layer candidate at u's position
// on u's road, or −1.
func indexOfRoad(layer []Candidate, u *Candidate) int {
	for l := range layer {
		if layer[l].Seg == u.Seg && layer[l].Frac == u.Frac {
			return l
		}
	}
	return -1
}

// colTops holds, for each middle candidate l of one shortcut window, the
// largest and second-largest step score into it, A[j][l] over the
// grand-predecessors j, and the j behind the largest. Eq. 20 with one
// predecessor asks for argmax_j max_l (A[j][l] + B[l][k]); since
// rounded addition is monotone, max_j fl(A[j][l] + b) is fl(max_j
// A[j][l] + b), so the argmax is the j behind max_l (v1[l] + B[l][k]),
// and the best any other j reaches is the same expression with that j's
// columns read from v2. One fill per point and two O(k) scans per
// candidate, where the full ranking costs O(k²) and a sort for each.
type colTops []colTop

type colTop struct {
	v1, v2 float64 // −Inf where absent
	j1     int
}

// fill computes the column tops of a = steps[i-1], whose rows are the
// nMid-wide step scores out of the original (non-pseudo) candidates of
// layer i-2. NaN (unreachable) and −Inf never enter: neither is greater
// than anything, exactly the entries the full ranking skips.
func (t *colTops) fill(a [][]float64, nMid int) {
	if cap(*t) < nMid {
		*t = make(colTops, nMid)
	}
	top := (*t)[:nMid]
	*t = top
	for l := range top {
		top[l] = colTop{v1: math.Inf(-1), v2: math.Inf(-1), j1: -1}
	}
	for j, row := range a {
		for l, w := range row {
			if c := &top[l]; w > c.v1 {
				c.v1, c.v2, c.j1 = w, c.v1, j
			} else if w > c.v2 {
				c.v2 = w
			}
		}
	}
}

// winner returns the grand-predecessor j with the largest two-step score
// into candidate kk of the window's last layer (b = steps[i]), and
// whether it is the only one with that score; −1 when no pair of steps
// is reachable. A NaN in b makes its sum NaN, which compares false.
func (t colTops) winner(b [][]float64, kk int) (j int, unique bool) {
	best, j := math.Inf(-1), -1
	for l := range t {
		if s := t[l].v1 + b[l][kk]; s > best {
			best, j = s, t[l].j1
		}
	}
	if j < 0 {
		return -1, false
	}
	for l := range t {
		rest := t[l].v1
		if t[l].j1 == j {
			rest = t[l].v2
		}
		if rest+b[l][kk] >= best {
			return j, false
		}
	}
	return j, true
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
		if layers[i-2][j].Pseudo || j >= len(steps[i-1]) {
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
			if !layers[i-2][j].Pseudo && !math.IsInf(f[i-2][j], -1) {
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
	best := Candidate{Pseudo: true}
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

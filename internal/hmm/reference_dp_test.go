package hmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// refDP is the outcome of referenceDP: the full forward table, the
// backpointers, the chosen candidate index per point (−1 for a dead
// point), the stitch gaps in trajectory order and the terminal score.
type refDP struct {
	layers [][]Candidate
	f      [][]float64
	pre    [][]int
	chosen []int
	gaps   []Gap
	score  float64
}

// referenceDP is the textbook dense Viterbi loop, written against the
// two models only — it shares no code with Matcher's recurrence, its
// accumulator or its backward walk. This repo's two additions to the
// textbook fall out of one rule: a candidate no predecessor reaches
// starts over (no backpointer), which covers both a dead gap (the
// previous layer is empty) and a Viterbi break (every pair unreachable).
// It starts from accum(P_O), except at a break under the log-product:
// there a restart from log P_O alone would outscore any path whose
// prefix has summed some negative logs, so the blocked step costs what
// an unreachable pair costs — the best previous score, plus accum(0) for
// the missing transition, plus accum(P_O).
func referenceDP(m *Matcher, ct traj.CellTrajectory) refDP {
	accum := func(p float64) float64 {
		if m.Cfg.Scoring != ScoreLogProd {
			return p
		}
		if p <= 0 {
			return -20
		}
		return math.Max(math.Log(p), -20)
	}
	n := len(ct)
	r := refDP{layers: make([][]Candidate, n), f: make([][]float64, n), pre: make([][]int, n), chosen: make([]int, n)}
	for t := range ct {
		r.layers[t] = m.Obs.Candidates(ct, t, m.Cfg.K)
		for s := range r.layers[t] {
			cur := &r.layers[t][s]
			best, arg := math.Inf(-1), -1
			for p := 0; t > 0 && p < len(r.layers[t-1]); p++ {
				pt, ok := m.Trans.Score(ct, t, &r.layers[t-1][p], cur)
				if !ok {
					continue
				}
				if c := r.f[t-1][p] + accum(pt*cur.Obs); c > best {
					best, arg = c, p
				}
			}
			if arg < 0 {
				best = accum(cur.Obs)
				if m.Cfg.Scoring == ScoreLogProd && t > 0 && len(r.layers[t-1]) > 0 {
					best = slices.Max(r.f[t-1]) + accum(0) + accum(cur.Obs)
				}
			}
			r.f[t], r.pre[t] = append(r.f[t], best), append(r.pre[t], arg)
		}
	}
	argmax := func(t int) int {
		return slices.Index(r.f[t], slices.Max(r.f[t]))
	}
	prevAlive := func(t int) int {
		for t--; t >= 0 && len(r.layers[t]) == 0; t-- {
		}
		return t
	}
	for t := range r.chosen {
		r.chosen[t] = -1
	}
	t := prevAlive(n)
	if t < 0 {
		return r
	}
	s := argmax(t)
	r.score = r.f[t][s]
	for {
		r.chosen[t] = s
		p := prevAlive(t)
		if p < 0 {
			return r
		}
		if s = r.pre[t][s]; s < 0 {
			reason := GapViterbiBreak
			if p != t-1 {
				reason = GapNoCandidates
			}
			r.gaps = append([]Gap{{From: p, To: t, Reason: reason}}, r.gaps...)
			s = argmax(p)
		}
		t = p
	}
}

// TestStreamAndBatchMatchReferenceDP holds the one shared forward step
// and backward walk to the reference on random small lattices: classical
// models over a distance-bounded router (so some pairs, and now and then
// a whole layer, are unreachable), random dead points, both tolerant
// break policies and both scorings. Match (shortcuts off) must reproduce
// the reference's terminal score, chosen candidates, dead flags and gaps;
// a StreamMatcher with lag ≥ n additionally exposes its table, which
// must equal the reference's f and backpointers entry for entry.
func TestStreamAndBatchMatchReferenceDP(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var breaks, deadGaps int
	for trial := 0; trial < 120; trial++ {
		w, h := 4+rng.Intn(4), 3+rng.Intn(3)
		net, _ := gridWorld(t, w, h)
		router := roadnet.NewRouter(net, roadnet.WithMaxDist([]float64{180, 320, 30000}[rng.Intn(3)]))
		n := 3 + rng.Intn(7)
		pts := make([]geo.Point, n)
		dead := map[int]bool{}
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*float64(w-1)*100, rng.Float64()*float64(h-1)*100)
			if rng.Float64() < 0.2 {
				dead[i] = true
			}
		}
		if len(dead) == n {
			continue
		}
		ct := trajAlong(pts...)
		newMatcher := func() *Matcher {
			return &Matcher{
				Net:    net,
				Router: router,
				Obs:    deadObs{&GaussianObservation{Net: net, Sigma: 100}, dead},
				Trans:  &ExponentialTransition{Router: router, Beta: 200},
				Cfg: Config{
					K:       2 + trial%3,
					OnBreak: []BreakPolicy{BreakSkip, BreakSplit}[trial/3%2],
					Scoring: []Scoring{ScoreSum, ScoreLogProd}[trial/6%2],
				},
			}
		}
		m := newMatcher()
		name := fmt.Sprintf("trial %d (%s, scoring %d, k %d)", trial, m.Cfg.OnBreak, m.Cfg.Scoring, m.Cfg.K)
		ref := referenceDP(m, ct)
		wantGaps := ref.gaps
		if m.Cfg.OnBreak != BreakSplit {
			wantGaps = nil
		}
		for _, g := range ref.gaps {
			if g.Reason == GapViterbiBreak {
				breaks++
			} else {
				deadGaps++
			}
		}
		wantMatched := make([]Candidate, n)
		for i, s := range ref.chosen {
			if s >= 0 {
				wantMatched[i] = ref.layers[i][s]
			}
		}

		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		if res.Score != ref.score {
			t.Fatalf("%s: Match score %v, reference %v", name, res.Score, ref.score)
		}
		if !reflect.DeepEqual(res.Matched, wantMatched) {
			t.Fatalf("%s: Match chose %+v, reference %+v", name, res.Matched, wantMatched)
		}
		if !slices.Equal(res.Gaps, wantGaps) {
			t.Fatalf("%s: Match gaps %+v, reference %+v", name, res.Gaps, wantGaps)
		}
		for i := range ct {
			if res.Dead[i] != dead[i] {
				t.Fatalf("%s: Match dead[%d] = %v", name, i, res.Dead[i])
			}
		}

		sm := NewStreamMatcher(newMatcher(), n+rng.Intn(3))
		for i, p := range ct {
			if out, err := sm.Push(p); err != nil || len(out) != 0 {
				t.Fatalf("%s: push %d: %d emitted, err %v", name, i, len(out), err)
			}
		}
		st := sm.ExportState()
		for i := range ct {
			if !slices.Equal(st.F[i], ref.f[i]) || !slices.Equal(st.Pre[i], ref.pre[i]) {
				t.Fatalf("%s: stream table row %d: f %v pre %v, reference f %v pre %v",
					name, i, st.F[i], st.Pre[i], ref.f[i], ref.pre[i])
			}
		}
		if got := sm.Flush(); !reflect.DeepEqual(got, wantMatched) {
			t.Fatalf("%s: stream chose %+v, reference %+v", name, got, wantMatched)
		}
		// One window, walked right to left: emit order is reversed.
		gotGaps := slices.Clone(sm.Gaps())
		slices.Reverse(gotGaps)
		if !slices.Equal(gotGaps, wantGaps) {
			t.Fatalf("%s: stream gaps %+v, reference %+v", name, gotGaps, wantGaps)
		}
	}
	if breaks == 0 || deadGaps == 0 {
		t.Fatalf("fixtures exercised %d Viterbi breaks and %d dead gaps; want both", breaks, deadGaps)
	}
}

// TestStreamPushAllocsBounded: a push finalizes one point and must cost
// the same late in a session as early — the backward walk stops at the
// first unfinalized point and its scratch is the emitted window, not the
// trajectory. The track repeats every four points, so a push at the same
// phase does the same work; the median over a window of 100 pushes
// discards the amortized growth of the per-point tables.
func TestStreamPushAllocsBounded(t *testing.T) {
	net, r := gridWorld(t, 8, 3)
	sm := NewStreamMatcher(classicMatcher(net, r, 5, 0), 3)
	xs := []float64{20, 150, 290, 420}
	const pushes = 2000
	mallocs, bytes := make([]uint64, pushes), make([]uint64, pushes)
	var ms runtime.MemStats
	for i := 0; i < pushes; i++ {
		p := traj.CellPoint{Tower: -1, P: geo.Pt(xs[i%len(xs)], 100), T: float64(i) * 60}
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		mallocs[i], bytes[i] = ms.Mallocs-m0, ms.TotalAlloc-b0
	}
	median := func(v []uint64) uint64 {
		v = slices.Clone(v)
		slices.Sort(v)
		return v[len(v)/2]
	}
	if early, late := median(mallocs[100:200]), median(mallocs[pushes-100:]); early != late {
		t.Errorf("allocations per push: %d in pushes 100-200, %d in the last 100", early, late)
	}
	if early, late := median(bytes[100:200]), median(bytes[pushes-100:]); early != late {
		t.Errorf("bytes per push: %d in pushes 100-200, %d in the last 100", early, late)
	}
}

// refAddShortcuts is Algorithm 2's window at point i as it was written
// before the window learned to skip what the recurrence already weighed,
// kept as the oracle: every attempt scores its pseudo-candidate through
// the models, and every candidate ranks its grand-predecessors with
// bestOneHopPredecessors.
func (m *Matcher) refAddShortcuts(ct traj.CellTrajectory, layers [][]Candidate, f [][]float64, pre [][]int, steps [][][]float64, i int, deg *int64) (adoptions, attempts int) {
	// A shortcut needs the contiguous chain i-2 → i-1 → i; a dead point
	// anywhere in the window leaves its step table nil (the chain
	// restarted there) and the window is skipped.
	if i < 2 || steps[i] == nil || steps[i-1] == nil {
		return 0, 0
	}
	nCur := len(layers[i]) // layers may grow behind us; bound to the original set
	for kk := 0; kk < nCur; kk++ {
		cur := &layers[i][kk]
		if cur.Pseudo {
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
	return adoptions, attempts
}

// prepare runs candidate preparation the way MatchContext does, for a
// trajectory without dead points: the table before its first step.
func prepare(t testing.TB, m *Matcher, ct traj.CellTrajectory) table {
	t.Helper()
	var tb table
	var deg int64
	for i := range ct {
		if layer, err := m.addLayer(&tb, m.candidates(ct, i, false), nil, &deg); err != nil || layer == nil {
			t.Fatalf("point %d has no candidates", i)
		}
	}
	return tb
}

// forwardLattice is prepare and then every forward step, shortcut
// windows included when m has them on.
func forwardLattice(t testing.TB, m *Matcher, ct traj.CellTrajectory) table {
	tb := prepare(t, m, ct)
	var deg int64
	for range ct {
		m.advance(context.Background(), &tb, ct, nil, nil, nil, &deg)
	}
	return tb
}

// cloneTable copies what a step writes, every slice at its exact length
// so that appending to the copy never reaches the original; step tables
// are read-only once filled and stay shared.
func cloneTable(tb table) table {
	clip := func(v [][]float64) [][]float64 { return slices.Clip(slices.Clone(v)) }
	c := table{
		layers: slices.Clip(slices.Clone(tb.layers)),
		f:      clip(tb.f),
		pre:    slices.Clip(slices.Clone(tb.pre)),
		dead:   slices.Clip(slices.Clone(tb.dead)),
		steps:  slices.Clip(slices.Clone(tb.steps)),
	}
	for i := range c.layers {
		c.layers[i] = slices.Clip(slices.Clone(c.layers[i]))
	}
	for i := range c.f {
		c.f[i], c.pre[i] = slices.Clip(slices.Clone(c.f[i])), slices.Clip(slices.Clone(c.pre[i]))
	}
	return c
}

// shortcutWorld is a w×h lattice of two-way 100 m streets — every road
// is a pair of twin candidates, equal in distance and observation score
// — with islands above it no route reaches: each island is two parallel
// two-way streets 30 m apart, so a point beside one has its four nearest
// roads there and, for K ≤ 4, an unqualified candidate set
// (Observation 1). It returns the network and a spot beside each island.
func shortcutWorld(t testing.TB, rng *rand.Rand, w, h int) (*roadnet.Network, []geo.Point) {
	t.Helper()
	var b roadnet.Builder
	id := func(i, j int) roadnet.NodeID { return roadnet.NodeID(j*w + i) }
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			b.AddNode(geo.Pt(float64(i)*100, float64(j)*100))
		}
	}
	twoWay := func(a, c roadnet.NodeID) {
		if _, _, err := b.AddTwoWay(a, c, roadnet.Local); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i+1 < w {
				twoWay(id(i, j), id(i+1, j))
			}
			if j+1 < h {
				twoWay(id(i, j), id(i, j+1))
			}
		}
	}
	var spots []geo.Point
	for x := 50.0; x+200 < float64(w)*100; x += 300 {
		y := float64(h-1)*100 + 250 + rng.Float64()*200
		for _, dy := range []float64{0, 30} {
			twoWay(b.AddNode(geo.Pt(x, y+dy)), b.AddNode(geo.Pt(x+200, y+dy)))
		}
		spots = append(spots, geo.Pt(x+40+rng.Float64()*120, y+10))
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, spots
}

// quantTrans rounds Eq. 3 to eighths, so exact ties between two-step
// scores are common, and scores a fan-out through the same function: a
// TransitionBatchModel that agrees with its pairwise Score bit for bit.
type quantTrans struct{ ExponentialTransition }

func (q *quantTrans) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	p, ok := q.ExponentialTransition.Score(ct, i, from, to)
	return math.Round(p*8) / 8, ok
}

func (q *quantTrans) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	return scoreBatchPairwise(q, ct, i, from, to, out)
}

// shortcutTrial is one random fixture of TestShortcutPassMatchesReference:
// a trajectory over shortcutWorld with points thrown beside its islands
// and a matcher whose shortcut count, scoring and transition model cycle
// with the trial number.
func shortcutTrial(t testing.TB, rng *rand.Rand, trial int) (*Matcher, traj.CellTrajectory) {
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
		Obs:    &GaussianObservation{Net: net, Sigma: []float64{100, 250}[trial/2%2]},
		Trans:  &ExponentialTransition{Router: router, Beta: 200},
		Cfg: Config{
			K:         2 + rng.Intn(5),
			Shortcuts: []int{1, 1, 2, 4}[trial%4],
			Scoring:   []Scoring{ScoreSum, ScoreLogProd}[trial/4%2],
		},
	}
	if trial/8%2 == 1 {
		m.Trans = &quantTrans{ExponentialTransition{Router: router, Beta: 200}}
	}
	return m, trajAlong(pts...)
}

// TestShortcutPassMatchesReference holds every forward step's shortcut
// window to refAddShortcuts exactly: before each step the table is
// cloned, the clone takes the step without its window (Shortcuts 0) and
// then the oracle's window, and the table itself takes advance; grown
// layers, f, pre, adoptions, attempts and degraded counts must be equal,
// and so must the Result a Match builds. The fixtures are random
// trajectories over shortcutWorld built so that shortcuts fire: points
// thrown beside an island (alone, in pairs, two points apart), small K,
// a distance-bounded router. They cover one, two and four predecessors
// per candidate, both scorings, the classical pairwise models and a
// batch model with quantized scores, and must reach every path of the
// window: attempts projected onto layer i-1's own roads (which the
// window skips) and attempts scored through the models, adoptions,
// exact ties sent to the full ranking, the f[i-2] fallback ranking
// deciding between twins, and an adoption that changes the backpointer
// the next step chooses — the recurrence of Eq. 21, which a pass over
// the finished table cannot express. The oracle, which scores every
// attempt, must never adopt a road of the layer's own: the recurrence
// has already weighed that path.
func TestShortcutPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var total shortcutStats
	var fallbackTies, redirected int
	for trial := 0; trial < 240; trial++ {
		m, ct := shortcutTrial(t, rng, trial)
		n := len(ct)
		off := *m
		off.Cfg.Shortcuts = 0
		name := fmt.Sprintf("trial %d (shortcuts %d, scoring %d, k %d, %T)", trial, m.Cfg.Shortcuts, m.Cfg.Scoring, m.Cfg.K, m.Trans)

		got := prepare(t, m, ct)
		var gotDeg, wantDeg int64
		var adoptions int
		var fPlain []float64 // f[i-1] as the recurrence formed it, before its window
		for i := range ct {
			want := cloneTable(got)
			off.advance(context.Background(), &want, ct, nil, nil, nil, &wantDeg)
			if i >= 1 && fPlain != nil && want.steps[i] != nil {
				// Would point i have chosen the same predecessors without
				// point i-1's adoptions?
				if _, pre, _ := m.recur(want.steps[i], fPlain, want.layers[i]); !slices.Equal(pre, want.pre[i]) {
					redirected++
				}
			}
			fPlain = slices.Clone(want.f[i])
			nMid := len(want.layers[max(i-1, 0)])
			wantAdopt, wantTries := m.refAddShortcuts(ct, want.layers, want.f, want.pre, want.steps, i, &wantDeg)
			_, ss := m.advance(context.Background(), &got, ct, nil, nil, nil, &gotDeg)
			st := ss.shortcuts
			if st.adoptions != wantAdopt || st.attempts != wantTries || gotDeg != wantDeg {
				t.Fatalf("%s: window %d: %d adoptions of %d attempts (%d degraded), reference %d of %d (%d)",
					name, i, st.adoptions, st.attempts, gotDeg, wantAdopt, wantTries, wantDeg)
			}
			if !reflect.DeepEqual(got.layers, want.layers) {
				t.Fatalf("%s: window %d: layers\n%+v\nreference\n%+v", name, i, got.layers, want.layers)
			}
			if !reflect.DeepEqual(got.f, want.f) || !reflect.DeepEqual(got.pre, want.pre) {
				t.Fatalf("%s: window %d: f %v pre %v, reference f %v pre %v", name, i, got.f, got.pre, want.f, want.pre)
			}
			if st.scored > st.attempts || st.adoptions > st.scored {
				t.Fatalf("%s: window %d: inconsistent counts %+v", name, i, st)
			}
			if i >= 2 {
				for _, u := range want.layers[i-1][nMid:] {
					if indexOfRoad(want.layers[i-1][:nMid], &u) >= 0 {
						t.Fatalf("%s: window %d: the reference adopted layer %d's own road %v", name, i, i-1, u.Seg)
					}
				}
			}
			adoptions += st.adoptions
			total.add(st)
		}
		if m.Cfg.Shortcuts == 1 {
			fallbackTies += countFallbackTies(got)
		}

		// The Result is the checked table walked back and expanded.
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%s: Match: %v", name, err)
		}
		wantMatched, wantSkipped := make([]Candidate, n), make([]bool, n)
		walkBack(got.f, got.pre, make([]bool, n), 0, func(i, idx int) {
			wantMatched[i], wantSkipped[i] = got.layers[i][idx], got.layers[i][idx].Pseudo
		}, nil)
		alive := make([]int, n)
		for i := range alive {
			alive[i] = i
		}
		if !reflect.DeepEqual(res.Matched, wantMatched) || !slices.Equal(res.Skipped, wantSkipped) {
			t.Fatalf("%s: Match chose %+v skipped %v, reference %+v skipped %v", name, res.Matched, res.Skipped, wantMatched, wantSkipped)
		}
		if wantPath := m.expandPath(wantMatched, alive, nil); !slices.Equal(res.Path, wantPath) {
			t.Fatalf("%s: Match path %v, reference %v", name, res.Path, wantPath)
		}
		if wantScore := slices.Max(got.f[n-1]); res.Score != wantScore || res.ShortcutAdoptions != adoptions {
			t.Fatalf("%s: Match score %v with %d adoptions, reference %v with %d", name, res.Score, res.ShortcutAdoptions, wantScore, adoptions)
		}
	}
	onLayer := total.attempts - total.scored
	t.Logf("attempts: %d projected onto the layer's own roads, %d scored (%d adopted); %d adoptions redirected the next step; %d exact ties ranked in full; %d fallback rankings tied",
		onLayer, total.scored, total.adoptions, redirected, total.ties, fallbackTies)
	if onLayer == 0 || total.scored == 0 || total.adoptions == 0 || redirected == 0 || total.ties == 0 || fallbackTies == 0 {
		t.Fatal("the fixtures missed a path of the window; want every count above > 0")
	}
}

// countFallbackTies counts the candidates of a break-free table whose
// shortcut window has no reachable pair of steps — Eq. 20 then ranks the
// grand-predecessors by f[i-2] — and whose two best f[i-2] are equal.
// Pseudo-candidates take no part: they are in no window's ranking.
func countFallbackTies(lt table) (ties int) {
	for i := 2; i < len(lt.layers); i++ {
		grand := lt.f[i-2][:ownCandidates(lt.layers[i-2])]
		top := slices.Max(grand)
		twice := 0
		for _, v := range grand {
			if v == top {
				twice++
			}
		}
		if twice < 2 {
			continue
		}
		for kk := range ownCandidates(lt.layers[i]) {
			reachable := false
			for j := range lt.steps[i-1] {
				for l, w1 := range lt.steps[i-1][j] {
					if !math.IsNaN(w1 + lt.steps[i][l][kk]) {
						reachable = true
					}
				}
			}
			if !reachable {
				ties++
			}
		}
	}
	return ties
}

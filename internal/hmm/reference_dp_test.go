package hmm

import (
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
// starts over from accum(P_O), which covers both a dead gap (the
// previous layer is empty) and a Viterbi break (every pair unreachable).
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

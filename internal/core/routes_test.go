package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/hmm"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// A batch match's helper goroutine routes each step through this
// interface; the learned session must keep offering it.
var _ hmm.TransitionRouteModel = transAdapter{}

// refTouchOrder is the order in which a step queues road probabilities,
// written out from its definition: from-candidate by from-candidate, the
// steps of its TreeWalk, then the segment of each target it reaches,
// then its own segment if it reaches any; each segment once.
func refTouchOrder(m *Model, from, to []hmm.Candidate) []roadnet.SegmentID {
	var order []roadnet.SegmentID
	seen := map[roadnet.SegmentID]bool{}
	note := func(sid roadnet.SegmentID) {
		if !seen[sid] {
			seen[sid] = true
			order = append(order, sid)
		}
	}
	for a := range from {
		segA := m.Net.Segment(from[a].Seg)
		var tgt []roadnet.NodeID
		var tree []int
		for b := range to {
			segB := m.Net.Segment(to[b].Seg)
			if kindOf(&from[a], &to[b], segA, segB) == pairTree {
				tgt = append(tgt, segB.From)
				tree = append(tree, b)
			}
		}
		dist := make([]float64, len(tgt))
		var steps []roadnet.TreeStep
		if len(tgt) > 0 {
			steps = m.Router.TreeWalk(segA.To, tgt, dist, nil)
		}
		for _, st := range steps {
			note(st.Seg)
		}
		reached := false
		for b := range to {
			if ti := slices.Index(tree, b); ti >= 0 && math.IsInf(dist[ti], 1) {
				continue
			}
			reached = true
			note(to[b].Seg)
		}
		if reached {
			note(from[a].Seg)
		}
	}
	return order
}

// TestPreparedRoutesBitEqual: a step scored over routes prepared ahead
// (transAdapter.PrepareRoutes, as the matcher's helper calls it) equals
// the same step routed inline (ScoreBatch), Float64bits for every pair
// and the same degraded count, on fresh sessions of their own: over
// same-segment, adjacent, tree and unreachable pairs, with and without
// the implicit feature, and with a NaN in the Eq. 12 head so that every
// reachable score degrades. Both queue the road probabilities they fill
// in the step's definitional order (refTouchOrder).
func TestPreparedRoutesBitEqual(t *testing.T) {
	m, whole, ct := trainedModel(t)
	from, to := everyPairShape(t, m, whole, ct)
	loose := m.Router
	bias := m.TransFuse.Layers[len(m.TransFuse.Layers)-1].B.W.W
	healthy := bias[0]
	defer func() {
		m.Router, m.Cfg.DisableImplicitTrans, bias[0] = loose, false, healthy
	}()
	kinds := map[pairKind]int{}
	unreachable, degraded := 0, 0
	for _, bound := range []float64{0, 900} {
		m.Router = roadnet.NewRouter(m.Net)
		if bound > 0 {
			m.Router = roadnet.NewRouter(m.Net, roadnet.WithMaxDist(bound))
		}
		for _, noImplicit := range []bool{false, true} {
			for _, nanHead := range []bool{false, true} {
				m.Cfg.DisableImplicitTrans = noImplicit
				bias[0] = healthy
				if nanHead {
					bias[0] = math.NaN()
				}
				want := make([]float64, len(from)*len(to))
				wantDeg := m.newSession(ct).ScoreBatch(ct, 1, from, to, want)

				prep := m.newSession(ct)
				r := transAdapter{prep}.PrepareRoutes(from, to)
				got := make([]float64, len(want))
				gotDeg := r.ScoreBatch(ct, 1, from, to, got)
				sr := r.(*stepRoutes)
				for _, k := range sr.kind {
					kinds[k]++
				}
				mask := make([]float64, len(want))
				var tab *roadTable
				if !noImplicit {
					tab = &roadTable{p: make([]float64, m.Net.NumSegments()), stamp: make([]uint32, m.Net.NumSegments())}
					tab.invalidate()
					tab.advance()
				}
				need, _, blocked := sr.touch(tab, from, to, mask, nil)
				r.Release()

				for p := range want {
					if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
						t.Fatalf("bound %v implicit off %v NaN head %v pair %d: prepared %v, inline %v", bound, noImplicit, nanHead, p, got[p], want[p])
					}
				}
				if gotDeg != wantDeg {
					t.Fatalf("bound %v implicit off %v NaN head %v: %d degraded prepared, %d inline", bound, noImplicit, nanHead, gotDeg, wantDeg)
				}
				if nanHead && wantDeg != len(want)-blocked {
					t.Fatalf("bound %v implicit off %v: NaN head degraded %d of %d reachable pairs", bound, noImplicit, wantDeg, len(want)-blocked)
				}
				if wantOrder := refTouchOrder(m, from, to); !noImplicit && !slices.Equal(need, wantOrder) {
					t.Fatalf("bound %v NaN head %v: queued %v, want %v", bound, nanHead, need, wantOrder)
				}
				if noImplicit && len(need) != 0 {
					t.Fatalf("bound %v: %d segments queued without the implicit feature", bound, len(need))
				}
				unreachable += blocked
				degraded += wantDeg
			}
		}
	}
	if kinds[pairSame] == 0 || kinds[pairAdjacent] == 0 || kinds[pairTree] == 0 || unreachable == 0 || degraded == 0 {
		t.Fatalf("fixtures reached kinds %v, %d unreachable, %d degraded; want every kind, some unreachable and some degraded", kinds, unreachable, degraded)
	}
}

// TestPreparedRoutesRecycled: a batch match recycles the routes its
// helper prepares through its session's cache. After the match every
// route is back in the cache, no more of them than the matcher keeps
// out ahead of its forward pass (three), however long the trip, and
// none still points at the session.
func TestPreparedRoutesRecycled(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	longest := 0
	for _, tr := range d.TestTrips() {
		sess := m.newSession(tr.Cell)
		sess.routes = new(routeCache)
		matcher := m.streamMatcher(sess, m.Cfg.OnBreak, traj.SanitizeOff)
		_, err := matcher.MatchContext(context.Background(), tr.Cell)
		sess.releaseTable()
		if err != nil {
			t.Fatalf("trip %d: %v", tr.ID, err)
		}
		if n := len(sess.routes.free); n == 0 || n > 3 {
			t.Fatalf("trip %d (%d points): %d routes in the cache after the match, want 1 to 3", tr.ID, len(tr.Cell), n)
		}
		for _, r := range sess.routes.free {
			if r.s != nil {
				t.Fatalf("trip %d: a cached route still holds its session", tr.ID)
			}
		}
		longest = max(longest, len(tr.Cell))
	}
	if longest < 8 {
		t.Fatalf("longest trip has %d points; the lookahead bound is not exercised", longest)
	}
}

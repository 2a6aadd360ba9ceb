package core

import (
	"math"
	"testing"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The batched inference paths (obsScoreBatchCtx, ScoreBatch,
// SelfApplyAllWS-built context) must agree with the written-out
// reference paths within 1e-12 — those are what the seed shipped, so
// this pins the perf rewrites to the original semantics.

const batchTol = 1e-12

// trainedModel trains one small model shared by the equivalence tests.
func trainedModel(t *testing.T) (*Model, *session, traj.CellTrajectory) {
	t.Helper()
	d := testDataset(t, 14)
	m, err := Train(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Trips[d.Test[0]]
	if len(tr.Cell) < 3 {
		t.Fatalf("test trip too short: %d points", len(tr.Cell))
	}
	return m, m.newSession(tr.Cell), tr.Cell
}

// tapeAttention is the reference attention read-out: att.Forward on a
// fresh tape with query as the query and kv as keys and values.
func tapeAttention(att *nn.Attention, query, kv *nn.Mat) *nn.Mat {
	tp := nn.NewTape()
	c := tp.Const(kv)
	out, _ := att.Forward(tp, tp.Const(query), c, c)
	return out.Val
}

// TestContextMatchesPerPointAttention: the one-shot batched Eq. 6 pass
// (SelfApplyAllWS) equals running the tape attention per point.
func TestContextMatchesPerPointAttention(t *testing.T) {
	m, sess, ct := trainedModel(t)
	for i := 0; i < len(ct); i++ {
		emb := sess.rows(sess.embW)
		want := tapeAttention(m.ObsAtt, emb.Rows(i, i+1), emb)
		got := sess.row(sess.ctxW, i)
		for j := range want.W {
			if math.Abs(want.W[j]-got[j]) > batchTol {
				t.Fatalf("point %d dim %d: ctx %v vs per-point %v", i, j, got[j], want.W[j])
			}
		}
	}
}

// TestCandidatesMatchScalarObsScore: every candidate probability out of
// the factored pool scoring equals the written-out Eq. 7/8 reference
// (refObsScores) softmax-normalized over the same pool, and the one-row
// shortcut Score of a chosen candidate is bit-equal to its pool score.
func TestCandidatesMatchScalarObsScore(t *testing.T) {
	m, sess, ct := trainedModel(t)
	for i := 0; i < len(ct); i++ {
		cands := sess.Candidates(ct, i, m.Cfg.K)
		if len(cands) == 0 {
			t.Fatalf("point %d: no candidates", i)
		}
		want := refPoolObs(m, ct, i, sess.row(sess.ctxW, i))
		for _, c := range cands {
			if math.Abs(want[c.Seg]-c.Obs) > batchTol {
				t.Fatalf("point %d seg %d: factored Obs %v vs reference %v", i, c.Seg, c.Obs, want[c.Seg])
			}
			if got := sess.Score(ct, i, &c); got != c.Obs {
				t.Fatalf("point %d seg %d: one-row Score %v vs pool Obs %v", i, c.Seg, got, c.Obs)
			}
		}
	}
}

// checkStepAgainstScalar scores one step through ScoreBatch and holds it
// to the pairwise TransScore oracle bit for bit, with NaN exactly where
// the oracle reports unreachable; so is every pair scored alone, as the
// shortcut pass scores a pseudo-candidate (transAdapter.Score). It
// returns the batch scores and how many pairs were unreachable.
func checkStepAgainstScalar(t *testing.T, what string, sess *session, ct traj.CellTrajectory, i int, from, to []hmm.Candidate) (out []float64, unreachable int) {
	t.Helper()
	out = make([]float64, len(from)*len(to))
	if deg := sess.ScoreBatch(ct, i, from, to, out); deg != 0 {
		t.Fatalf("%s step %d: %d degraded scores from a healthy model", what, i, deg)
	}
	for j := range from {
		for kk := range to {
			got := out[j*len(to)+kk]
			want, ok := sess.TransScore(ct, i, &from[j], &to[kk])
			one, oneOK := transAdapter{sess}.Score(ct, i, &from[j], &to[kk])
			if oneOK != ok || ok && one != want {
				t.Fatalf("%s step %d pair (%d,%d): one-pair %v (ok %v) vs oracle %v (ok %v)", what, i, j, kk, one, oneOK, want, ok)
			}
			if !ok {
				unreachable++
				if !math.IsNaN(got) {
					t.Fatalf("%s step %d pair (%d,%d): batch %v for unreachable pair", what, i, j, kk, got)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s step %d pair (%d,%d): batch %v vs oracle %v", what, i, j, kk, got, want)
			}
		}
	}
	return out, unreachable
}

// TestScoreBatchMatchesTransScore: the fused k×k transition batch
// equals the pairwise TransScore oracle bit for bit, with NaN exactly
// where the oracle reports unreachable — on a session filled whole and on one
// extended causally, a point per step, whose keys and road-probability
// table are renewed every time the trajectory grows; then on hand-built
// candidates covering every pair shape, under a bound that cuts pairs
// off, without the implicit feature, and with a hierarchy attached.
func TestScoreBatchMatchesTransScore(t *testing.T) {
	m, whole, ct := trainedModel(t)
	for _, tc := range []struct {
		name string
		sess *session
		seen func(i int) traj.CellTrajectory // the trajectory as of step i
	}{
		{"whole", whole, func(int) traj.CellTrajectory { return ct }},
		{"causal", &session{m: m}, func(i int) traj.CellTrajectory { return ct[:i+1] }},
	} {
		sess := tc.sess
		for i := 1; i < len(ct) && i <= 4; i++ {
			ct := tc.seen(i)
			from := sess.Candidates(ct, i-1, m.Cfg.K)
			to := sess.Candidates(ct, i, m.Cfg.K)
			if sess.n != len(ct) {
				t.Fatalf("%s step %d: session absorbed %d of %d points", tc.name, i, sess.n, len(ct))
			}
			checkStepAgainstScalar(t, tc.name, sess, ct, i, from, to)
			if !sess.whole && sess.roadP != nil {
				t.Fatalf("%s step %d: causal session kept its road-probability table", tc.name, i)
			}
		}
	}

	// Every pair shape in one step: a0 and a1 end at one node through
	// different segments (two folds over one tree), targets sit ahead of
	// and behind a0 on its own segment, on a segment adjacent to it, and
	// wherever the learned candidates of the two points fall.
	net := m.Net
	at := func(sid roadnet.SegmentID, frac float64) hmm.Candidate {
		return hmm.Candidate{Seg: sid, Frac: frac, Proj: net.Segment(sid).PointAt(frac)}
	}
	var from, to []hmm.Candidate
	for sid := roadnet.SegmentID(0); int(sid) < net.NumSegments() && from == nil; sid++ {
		into, next := net.In(net.Segment(sid).To), net.Next(sid)
		if len(into) < 2 || len(next) == 0 {
			continue
		}
		other := into[0]
		if other == sid {
			other = into[1]
		}
		from = []hmm.Candidate{at(sid, 0.3), at(other, 0.6)}
		to = []hmm.Candidate{at(sid, 0.7), at(sid, 0.1), at(sid, 0.3), at(next[0], 0.4), at(other, 0.2)}
	}
	if from == nil {
		t.Fatal("fixture network has no node with two segments in and one out")
	}
	from = append(from, whole.Candidates(ct, 0, m.Cfg.K)...)
	to = append(to, whole.Candidates(ct, 1, m.Cfg.K)...)

	loose := m.Router
	defer func() { m.Router = loose }()
	var flatOut []float64
	for _, rc := range []struct {
		name string
		opts []roadnet.RouterOption
	}{
		{"flat", nil},
		{"flat, tight bound", []roadnet.RouterOption{roadnet.WithMaxDist(900)}},
		{"hierarchy, tight bound", []roadnet.RouterOption{roadnet.WithMaxDist(900), roadnet.WithHierarchy(roadnet.BuildHierarchy(net))}},
	} {
		m.Router = roadnet.NewRouter(net, rc.opts...)
		for _, noImplicit := range []bool{false, true} {
			name := rc.name
			if noImplicit {
				name += ", no implicit feature"
			}
			m.Cfg.DisableImplicitTrans = noImplicit
			out, unreachable := checkStepAgainstScalar(t, name, m.newSession(ct), ct, 1, from, to)
			m.Cfg.DisableImplicitTrans = false
			if tight := rc.opts != nil; tight != (unreachable > 0) || unreachable == len(out) {
				t.Fatalf("%s: %d of %d pairs unreachable", name, unreachable, len(out))
			}
			// The hierarchy must reproduce the flat router's step exactly.
			if rc.name == "flat, tight bound" && !noImplicit {
				flatOut = out
			}
			if rc.name == "hierarchy, tight bound" && !noImplicit {
				for p := range out {
					if math.Float64bits(out[p]) != math.Float64bits(flatOut[p]) {
						t.Fatalf("pair %d: hierarchy %v vs flat %v", p, out[p], flatOut[p])
					}
				}
			}
		}
	}
}

// TestPairFeaturesMatchOracle: a phase-2 feature row — one pair through
// the fold (pairFeatures) — equals the oracle's, walking the pair's
// materialized route, with and without the implicit feature. The pairs
// are the road positions phase 2 samples: candidates of consecutive
// points, each projected onto its road as the injected ground-truth
// pairs are. The two sides use separate sessions, so neither reads a
// road probability the other filled.
func TestPairFeaturesMatchOracle(t *testing.T) {
	m, _, ct := trainedModel(t)
	defer func() { m.Cfg.DisableImplicitTrans = false }()
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	for _, noImplicit := range []bool{false, true} {
		m.Cfg.DisableImplicitTrans = noImplicit
		fold, oracle := m.newSession(ct), m.newSession(ct)
		pairs := 0
		for i := 1; i < len(ct) && i <= 4; i++ {
			straight := ct[i-1].P.Dist(ct[i].P)
			from, to := fold.Candidates(ct, i-1, m.Cfg.K), fold.Candidates(ct, i, m.Cfg.K)
			for _, a := range from {
				for _, b := range to {
					route, ok := m.Router.RouteBetween(a.Pos(), b.Pos())
					if !ok || len(route.Segs) == 0 {
						continue
					}
					got := fold.pairFeatures(ws, ct, i, a.Pos(), b.Pos())
					if want := oracle.transFeatures(ws, route, straight); got != want {
						t.Fatalf("implicit off %v, step %d, %v → %v: fold %v vs oracle %v", noImplicit, i, a.Pos(), b.Pos(), got, want)
					}
					pairs++
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("implicit off %v: no reachable pair", noImplicit)
		}
	}
}

// TestRoadTableStampWrap: when the table's stamp counter is about to
// wrap the stamps are cleared, so a step straddling the wrap refills and
// scores exactly as before.
func TestRoadTableStampWrap(t *testing.T) {
	m, sess, ct := trainedModel(t)
	from := sess.Candidates(ct, 0, m.Cfg.K)
	to := sess.Candidates(ct, 1, m.Cfg.K)
	want := make([]float64, len(from)*len(to))
	sess.ScoreBatch(ct, 1, from, to, want)
	tab := sess.roadP
	for i := range tab.stamp {
		if tab.stamp[i] != 0 {
			tab.stamp[i] = math.MaxUint32
		}
	}
	tab.base, tab.cur = math.MaxUint32, math.MaxUint32
	for round := 0; round < 2; round++ {
		got := make([]float64, len(want))
		sess.ScoreBatch(ct, 1, from, to, got)
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("round %d pair %d: %v after the wrap, %v before", round, p, got[p], want[p])
			}
		}
	}
	if tab.cur != 2 || tab.base != 1 {
		t.Fatalf("after the wrap and two steps: cur %d base %d, want 2 and 1", tab.cur, tab.base)
	}
}

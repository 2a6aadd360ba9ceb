package core

import (
	"math"
	"testing"

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

// TestContextMatchesPerPointAttention: the one-shot batched Eq. 6 pass
// (SelfApplyAllWS) equals running the attention per point.
func TestContextMatchesPerPointAttention(t *testing.T) {
	m, sess, ct := trainedModel(t)
	for i := 0; i < len(ct); i++ {
		emb := sess.rows(sess.embW)
		want, _ := m.ObsAtt.Apply(emb.Rows(i, i+1), emb, emb)
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

// TestScoreBatchMatchesTransScore: the fused k×k transition batch
// equals pairwise TransScore, with NaN exactly where the scalar path
// reports unreachable — on a session filled whole and on one extended
// causally, a point per step, whose keys and road-probability cache are
// rebuilt every time the trajectory grows.
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
			out := make([]float64, len(from)*len(to))
			if deg := sess.ScoreBatch(ct, i, from, to, out); deg != 0 {
				t.Fatalf("%s step %d: %d degraded scores from a healthy model", tc.name, i, deg)
			}
			for j := range from {
				for kk := range to {
					got := out[j*len(to)+kk]
					want, ok := sess.TransScore(ct, i, &from[j], &to[kk])
					if !ok {
						if !math.IsNaN(got) {
							t.Fatalf("%s step %d pair (%d,%d): batch %v for unreachable pair", tc.name, i, j, kk, got)
						}
						continue
					}
					if math.IsNaN(got) || math.Abs(want-got) > batchTol {
						t.Fatalf("%s step %d pair (%d,%d): batch %v vs scalar %v", tc.name, i, j, kk, got, want)
					}
				}
			}
		}
	}
}

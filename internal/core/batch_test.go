package core

import (
	"math"
	"testing"

	"repro/internal/nn"
)

// The batched inference paths (obsScoreBatchCtx, ScoreBatch,
// SelfApplyAllWS-built context) must agree with the written-out
// reference paths within 1e-12 — those are what the seed shipped, so
// this pins the perf rewrites to the original semantics.

const batchTol = 1e-12

// trainedModel trains one small model shared by the equivalence tests.
func trainedModel(t *testing.T) (*Model, *session) {
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
	sess := m.newSession(tr.Cell)
	t.Cleanup(sess.release)
	return m, sess
}

// TestContextMatchesPerPointAttention: the one-shot batched Eq. 6 pass
// (SelfApplyAllWS) equals running the attention per point.
func TestContextMatchesPerPointAttention(t *testing.T) {
	m, sess := trainedModel(t)
	for i := 0; i < len(sess.ct); i++ {
		q := &nn.Mat{R: 1, C: sess.ptEmb.C, W: sess.ptEmb.Row(i)}
		want, _ := m.ObsAtt.Apply(q, sess.ptEmb, sess.ptEmb)
		got := sess.ctx.Row(i)
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
	m, sess := trainedModel(t)
	for i := 0; i < len(sess.ct); i++ {
		cands := sess.Candidates(sess.ct, i, m.Cfg.K)
		if len(cands) == 0 {
			t.Fatalf("point %d: no candidates", i)
		}
		want := refPoolObs(m, sess.ct, i, sess.ctx.Row(i))
		for _, c := range cands {
			if math.Abs(want[c.Seg]-c.Obs) > batchTol {
				t.Fatalf("point %d seg %d: factored Obs %v vs reference %v", i, c.Seg, c.Obs, want[c.Seg])
			}
			if got := sess.Score(sess.ct, i, &c); got != c.Obs {
				t.Fatalf("point %d seg %d: one-row Score %v vs pool Obs %v", i, c.Seg, got, c.Obs)
			}
		}
	}
}

// TestScoreBatchMatchesTransScore: the fused k×k transition batch
// equals pairwise TransScore, with NaN exactly where the scalar path
// reports unreachable.
func TestScoreBatchMatchesTransScore(t *testing.T) {
	m, sess := trainedModel(t)
	for i := 1; i < len(sess.ct) && i <= 4; i++ {
		from := sess.Candidates(sess.ct, i-1, m.Cfg.K)
		to := sess.Candidates(sess.ct, i, m.Cfg.K)
		out := make([]float64, len(from)*len(to))
		sess.ScoreBatch(sess.ct, i, from, to, out)
		for j := range from {
			for kk := range to {
				got := out[j*len(to)+kk]
				want, ok := sess.TransScore(sess.ct, i, &from[j], &to[kk])
				if !ok {
					if !math.IsNaN(got) {
						t.Fatalf("step %d pair (%d,%d): batch %v for unreachable pair", i, j, kk, got)
					}
					continue
				}
				if math.IsNaN(got) || math.Abs(want-got) > batchTol {
					t.Fatalf("step %d pair (%d,%d): batch %v vs scalar %v", i, j, kk, got, want)
				}
			}
		}
	}
}

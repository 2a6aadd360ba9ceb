package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/traj"
)

// replayObs is a session whose Candidates hands back layers prepared
// before the match started.
type replayObs struct {
	*session
	layers [][]hmm.Candidate
}

func (r replayObs) Candidates(_ traj.CellTrajectory, i, _ int) []hmm.Candidate {
	return slices.Clone(r.layers[i])
}

// inlineTrans is the session's transition side without PrepareRoutes:
// a match over it routes every step inline, on the caller.
type inlineTrans struct{ t transAdapter }

func (i inlineTrans) Score(ct traj.CellTrajectory, at int, from, to *hmm.Candidate) (float64, bool) {
	return i.t.Score(ct, at, from, to)
}

func (i inlineTrans) ScoreBatch(ct traj.CellTrajectory, at int, from, to []hmm.Candidate, out []float64) int {
	return i.t.ScoreBatch(ct, at, from, to, out)
}

// sequentialMatch is the reference for the matcher's helper goroutine
// over a learned session: every point's Candidates runs on the calling
// goroutine, in point order, before the forward pass starts, so no
// observation call overlaps a transition call; the match then replays
// those layers and routes each step inline. It takes a trajectory that
// needs no sanitizing.
func sequentialMatch(m *Model, ct traj.CellTrajectory) (*hmm.Result, error) {
	sess := m.newSession(ct)
	defer sess.releaseTable()
	layers := make([][]hmm.Candidate, len(ct))
	for i := range ct {
		layers[i] = sess.Candidates(ct, i, m.Cfg.K)
	}
	matcher := m.streamMatcher(sess, m.Cfg.OnBreak, traj.SanitizeOff)
	matcher.Obs = replayObs{sess, layers}
	matcher.Trans = inlineTrans{transAdapter{sess}}
	matcher.Cfg.Trace = m.Cfg.Trace
	matcher.Cfg.Explain = m.Cfg.Explain
	return matcher.MatchContext(context.Background(), ct)
}

// settle fails t unless the goroutine count comes back to base: the
// helper closes its channel just before it returns, so it is given a
// moment.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the match, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrepareHelperCoreEquivalent holds Model.MatchContext, whose
// session's Candidates and step routing run on the matcher's helper
// goroutine beside the rest of the transition side and the shortcut
// pass's Score, to sequentialMatch: the three break policies, with dead
// points injected at the same hits in both runs (the failpoint kills a
// layer on the caller after the helper routed the steps into and out of
// it), degraded transition scores, explain and trace on, and a small K
// at which shortcuts adopt. Every match leaves no goroutine behind.
func TestPrepareHelperCoreEquivalent(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	d := testDataset(t, 10)
	m := streamModel(t, d)
	m.Cfg.Trace, m.Cfg.Explain = true, true
	trips := d.TestTrips()
	base := runtime.NumGoroutine()
	adopted, dead, failed := 0, 0, 0
	for _, k := range []int{2, m.Cfg.K} {
		m.Cfg.K = k
		for _, policy := range []hmm.BreakPolicy{hmm.BreakError, hmm.BreakSkip, hmm.BreakSplit} {
			m.Cfg.OnBreak = policy
			for _, faults := range []string{"", "hmm.candidates.empty:4,core.trans.nan:7"} {
				for _, tr := range trips {
					name := fmt.Sprintf("K=%d %v faults %q trip %d", k, policy, faults, tr.ID)
					run := func(match func() (*hmm.Result, error)) (*hmm.Result, error) {
						faultinject.DisarmAll()
						if err := faultinject.Arm(faults); err != nil {
							t.Fatal(err)
						}
						return match()
					}
					got, gotErr := run(func() (*hmm.Result, error) { return m.MatchContext(context.Background(), tr.Cell) })
					settle(t, name, base)
					want, wantErr := run(func() (*hmm.Result, error) { return sequentialMatch(m, tr.Cell) })
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
					}
					if gotErr != nil {
						failed++
						continue
					}
					got.Trace.Stages, want.Trace.Stages = obs.StageTimings{}, obs.StageTimings{}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: MatchContext differs from the sequential reference", name)
					}
					adopted += got.ShortcutAdoptions
					for _, dd := range got.Dead {
						if dd {
							dead++
						}
					}
				}
			}
		}
	}
	t.Logf("%d shortcut adoptions, %d dead points matched, %d matches failed alike", adopted, dead, failed)
	if adopted == 0 || dead == 0 || failed == 0 {
		t.Fatal("the fixtures no longer reach shortcut adoptions, dead points and failing matches")
	}
}

// TestPrepareHelperShapeMismatch breaks one head's weights so that
// inference panics, on the helper (the Eq. 8 fuse head, which only
// Candidates reads) or on the caller (the Eq. 12 head, which only the
// transition side reads): either way the match returns core's
// recovered-panic error and leaves no goroutine behind.
func TestPrepareHelperShapeMismatch(t *testing.T) {
	d := testDataset(t, 10)
	ct := d.TestTrips()[0].Cell
	for _, head := range []string{"obs.fuse", "trans.fuse"} {
		m := streamModel(t, d)
		mlp := m.ObsFuse
		if head == "trans.fuse" {
			mlp = m.TransFuse
		}
		mlp.Layers[0].W.W = nn.NewMat(5, 8) // the head reads 3 features
		base := runtime.NumGoroutine()
		res, err := m.MatchContext(context.Background(), ct)
		if res != nil || err == nil || !strings.HasPrefix(err.Error(), "core: match panicked") {
			t.Fatalf("%s: result %v, error %v; want core's recovered panic", head, res, err)
		}
		settle(t, head, base)
	}
}

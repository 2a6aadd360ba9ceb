package baselines

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/traj"
)

// replayObs hands back layers prepared before the match started and
// scores everything else through the model it wraps.
type replayObs struct {
	hmm.ObservationModel
	layers [][]hmm.Candidate
}

func (r replayObs) Candidates(_ traj.CellTrajectory, i, _ int) []hmm.Candidate {
	return slices.Clone(r.layers[i])
}

// TestPrepareHelperIVMMEquivalent holds a match over IVMM's observation
// side, which routes through the shared router from the matcher's
// helper goroutine while the caller routes the transitions and the
// shortcut pass, to a sequential reference: every point's Candidates
// on the calling goroutine, in point order, before the forward pass,
// whose match then replays those layers. Explain and trace are on, and
// shortcuts on and off.
func TestPrepareHelperIVMMEquivalent(t *testing.T) {
	d, router, _ := world(t, 14)
	adopted := 0
	for _, shortcuts := range []int{0, 1} {
		for _, tr := range d.TestTrips() {
			build := func() *hmm.Matcher {
				m := NewMatcher(d.Net, router, CommonConfig{K: 4}, shortcuts, nil, nil)
				m.Obs = &ivmmObservation{
					inner:  &hmm.GaussianObservation{Net: d.Net, Sigma: hmm.ClassicalSigma},
					router: router,
					window: 2,
					voteK:  3,
				}
				m.Cfg.Trace, m.Cfg.Explain = true, true
				return m
			}
			m := build()
			got, err := m.MatchContext(context.Background(), tr.Cell)
			if err != nil {
				t.Fatal(err)
			}
			ref := build()
			layers := make([][]hmm.Candidate, len(tr.Cell))
			for i := range tr.Cell {
				layers[i] = ref.Obs.Candidates(tr.Cell, i, ref.Cfg.K)
			}
			ref.Obs = replayObs{ref.Obs, layers}
			want, err := ref.MatchContext(context.Background(), tr.Cell)
			if err != nil {
				t.Fatal(err)
			}
			got.Trace.Stages, want.Trace.Stages = obs.StageTimings{}, obs.StageTimings{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shortcuts %d trip %d: MatchContext differs from the sequential reference", shortcuts, tr.ID)
			}
			adopted += got.ShortcutAdoptions
		}
	}
	if adopted == 0 {
		t.Fatal("no shortcut adopted: the shortcut pass's Score never ran beside the helper")
	}
}

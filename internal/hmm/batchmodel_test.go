package hmm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// randomWalks builds jittered trajectories wandering across the grid.
func randomWalks(n, steps int, seed int64) []traj.CellTrajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]traj.CellTrajectory, n)
	for i := range out {
		x, y := 100+rng.Float64()*400, 100+rng.Float64()*200
		pts := make([]geo.Point, steps)
		for s := range pts {
			x += rng.Float64()*160 - 40
			y += rng.Float64()*120 - 60
			pts[s] = geo.Pt(x, y)
		}
		out[i] = trajAlong(pts...)
	}
	return out
}

// batchEcho wraps ExponentialTransition with a TransitionBatchModel
// implementation, proving the matcher's batch hook reproduces the
// pairwise path exactly.
type batchEcho struct{ ExponentialTransition }

func (b *batchEcho) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	return scoreBatchPairwise(b, ct, i, from, to, out)
}

// scoreBatchPairwise fills a ScoreBatch table from the model's own
// pairwise Score, NaN where it reports the movement impossible.
func scoreBatchPairwise(tm TransitionModel, ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	nTo := len(to)
	for j := range from {
		for kk := range to {
			p, ok := tm.Score(ct, i, &from[j], &to[kk])
			if !ok {
				p = math.NaN()
			}
			out[j*nTo+kk] = p
		}
	}
	return 0
}

func TestBatchModelIdenticalToPairwise(t *testing.T) {
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(4, 6, 7)
	pair := classicMatcher(net, r, 6, 1)
	batch := classicMatcher(net, r, 6, 1)
	batch.Trans = &batchEcho{ExponentialTransition{Router: r, Beta: 200}}
	for i, ct := range walks {
		want, err := pair.Match(ct)
		if err != nil {
			t.Fatalf("pairwise match %d: %v", i, err)
		}
		got, err := batch.Match(ct)
		if err != nil {
			t.Fatalf("batch match %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Matched, want.Matched) || got.Score != want.Score {
			t.Fatalf("walk %d: batch-model result diverged from pairwise", i)
		}
	}
}

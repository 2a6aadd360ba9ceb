package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/hmm"
	"repro/internal/roadnet"
)

// refSelectTopK is selectTopK's choice as it was written with
// sort.Slice over index slices: the candidates the pool keeps, in the
// order they come back. It takes the candidates with their Obs already
// normalized.
func refSelectTopK(cands []hmm.Candidate, k int) []hmm.Candidate {
	if k >= len(cands) {
		sort.Slice(cands, func(a, b int) bool { return cands[a].Obs > cands[b].Obs })
		return cands
	}
	byDist := make([]int, len(cands))
	for i := range byDist {
		byDist[i] = i
	}
	sort.Slice(byDist, func(a, b int) bool { return cands[byDist[a]].Dist < cands[byDist[b]].Dist })
	guaranteed := make([]bool, len(cands))
	for _, idx := range byDist[:k/3+1] {
		guaranteed[idx] = true
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := guaranteed[order[a]], guaranteed[order[b]]
		if ga != gb {
			return ga
		}
		if cands[order[a]].Obs != cands[order[b]].Obs {
			return cands[order[a]].Obs > cands[order[b]].Obs
		}
		return cands[order[a]].Seg < cands[order[b]].Seg
	})
	out := make([]hmm.Candidate, k)
	for i := 0; i < k; i++ {
		out[i] = cands[order[i]]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Obs > out[b].Obs })
	return out
}

// TestSelectTopKMatchesSortSlice holds selectTopK's slices.SortFunc
// sorts to the sort.Slice ones they replaced: the same candidates in the
// same order, over pools whose distances and scores tie often (both
// sorts are unstable, so ties are where they could part), on both sides
// of the 256-candidate stack arrays, whole pools included.
func TestSelectTopKMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(60)
		if trial%10 == 0 {
			n = 200 + rng.Intn(150)
		}
		pool := make([]hmm.Candidate, n)
		scores := make([]float64, n)
		for i, s := range rng.Perm(n) {
			pool[i] = hmm.Candidate{Seg: roadnet.SegmentID(s), Dist: float64(rng.Intn(8)) * 100}
			scores[i] = float64(rng.Intn(6)) - 3
		}
		k := 1 + rng.Intn(n+3)
		want := slices.Clone(pool)
		wantScores := slices.Clone(scores)
		got, mx, z := selectTopK(pool, scores, k)
		// The pool softmax as selectTopK computes it (nn.ExpInto is
		// math.Exp bit for bit).
		wmx, wz := math.Inf(-1), 0.0
		for _, v := range wantScores {
			wmx = max(wmx, v)
		}
		for i := range want {
			want[i].Obs = math.Exp(wantScores[i] - wmx)
			wz += want[i].Obs
		}
		for i := range want {
			want[i].Obs /= wz
		}
		ref := refSelectTopK(want, k)
		if mx != wmx || z != wz || !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (n=%d k=%d): selectTopK kept\n %v\nwant\n %v", trial, n, k, got, ref)
		}
	}
}

package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRowBlocks: every row of [0, n) lies in exactly one block, every
// block but the last holds block rows, and no worker index reaches the
// worker count, for worker counts above and below the block count.
func TestRowBlocks(t *testing.T) {
	for _, c := range []struct{ n, block, workers int }{
		{0, 4, 2}, {1, 4, 3}, {10, 3, 1}, {10, 3, 2}, {10, 3, 8}, {64, 64, 2}, {65, 8, 3},
	} {
		var mu sync.Mutex
		hits := make([]int, c.n)
		RowBlocks(c.n, c.block, c.workers, func(w, lo, hi int) {
			if w < 0 || w >= c.workers {
				t.Errorf("%+v: worker %d", c, w)
			}
			if lo%c.block != 0 || (hi-lo != c.block && hi != c.n) {
				t.Errorf("%+v: block [%d,%d)", c, lo, hi)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Errorf("%+v: row %d done %d times", c, i, h)
			}
		}
	}
}

// TestAdamStepBlocked holds Step on a parameter large enough to be split
// across goroutines to the one-loop update, bit for bit, over three
// steps with gradients of either sign, zeros and ±Inf.
func TestAdamStepBlocked(t *testing.T) {
	const n = adamParallelMin + 1001 // a last block shorter than the others
	rng := rand.New(rand.NewSource(3))
	p := NewParam("big", 1, n, rng)
	ref := &Param{Name: "ref", W: p.W.Clone()}
	refM, refV := NewMat(1, n), NewMat(1, n)
	a := NewAdam()
	for step := 1; step <= 3; step++ {
		p.ZeroGrad()
		g := p.grad().W
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		g[7], g[n-1], g[n/2] = 0, math.Inf(1), math.Inf(-1)
		grad := slices.Clone(g)
		a.Step([]*Param{p})
		bc1 := 1 - math.Pow(a.Beta1, float64(step))
		bc2 := 1 - math.Pow(a.Beta2, float64(step))
		for i, gi := range grad {
			refM.W[i] = a.Beta1*refM.W[i] + (1-a.Beta1)*gi
			refV.W[i] = a.Beta2*refV.W[i] + (1-a.Beta2)*gi*gi
			mHat := refM.W[i] / bc1
			vHat := refV.W[i] / bc2
			ref.W.W[i] -= a.LR * (mHat/(math.Sqrt(vHat)+a.Eps) + a.WeightDecay*ref.W.W[i])
		}
		for i := range ref.W.W {
			if math.Float64bits(p.W.W[i]) != math.Float64bits(ref.W.W[i]) {
				t.Fatalf("step %d element %d: %v, one loop %v", step, i, p.W.W[i], ref.W.W[i])
			}
		}
	}
}

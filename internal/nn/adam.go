package nn

import (
	"math"
	"runtime"
)

// Adam implements the Adam optimizer with decoupled weight decay, the
// training setup the paper uses (§V-A2: Adam, lr 1e-3, weight decay
// 1e-4).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// NewAdam returns an optimizer with the paper's defaults.
func NewAdam() *Adam {
	return &Adam{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 1e-4}
}

// Step applies one update to every parameter from its accumulated
// gradient, then clears the gradients. Each element's update reads only
// that element, so a parameter of at least adamParallelMin elements is
// updated in blocks on up to GOMAXPROCS goroutines with the same bits.
func (a *Adam) Step(params []*Param) {
	for _, p := range params {
		if p.m == nil {
			p.m = NewMat(p.W.R, p.W.C)
			p.v = NewMat(p.W.R, p.W.C)
		}
		grad := p.grad().W
		p.step++
		bc1 := 1 - math.Pow(a.Beta1, float64(p.step))
		bc2 := 1 - math.Pow(a.Beta2, float64(p.step))
		workers := 1
		if len(p.W.W) >= adamParallelMin {
			workers = runtime.GOMAXPROCS(0)
		}
		RowBlocks(len(p.W.W), adamParallelMin/2, workers, func(_, lo, hi int) {
			w, m, v := p.W.W[lo:hi], p.m.W[lo:hi], p.v.W[lo:hi]
			for i, g := range grad[lo:hi] {
				m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
				v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
				mHat := m[i] / bc1
				vHat := v[i] / bc2
				w[i] -= a.LR * (mHat/(math.Sqrt(vHat)+a.Eps) + a.WeightDecay*w[i])
			}
		})
		p.ZeroGrad()
	}
}

// adamParallelMin is the element count from which Step splits a
// parameter's update across goroutines: the |V|×d node table at the
// benchmark's shape has a million, every head weight under 33 thousand.
const adamParallelMin = 1 << 16

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm. It returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.grad().W {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

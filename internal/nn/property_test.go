package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randMat produces a bounded random matrix for property tests.
func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.W {
		m.W[i] = rng.NormFloat64()
	}
	return m
}

// TestMatMulAssociativity checks (A·B)·C == A·(B·C) on random shapes.
func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		a, b, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		d := 1 + rng.Intn(5)
		A, B, C := randMat(rng, a, b), randMat(rng, b, c), randMat(rng, c, d)
		AB := NewMat(a, c)
		MatMulInto(AB, A, B)
		left := NewMat(a, d)
		MatMulInto(left, AB, C)
		BC := NewMat(b, d)
		MatMulInto(BC, B, C)
		right := NewMat(a, d)
		MatMulInto(right, A, BC)
		for i := range left.W {
			if math.Abs(left.W[i]-right.W[i]) > 1e-9 {
				t.Fatalf("associativity broken at %d: %v vs %v", i, left.W[i], right.W[i])
			}
		}
	}
}

// TestTransposeInvolution checks (Aᵀ)ᵀ == A.
func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		A := randMat(rng, r, c)
		At := NewMat(c, r)
		TransposeInto(At, A)
		Att := NewMat(r, c)
		TransposeInto(Att, At)
		for i := range A.W {
			if A.W[i] != Att.W[i] {
				t.Fatal("transpose involution broken")
			}
		}
	}
}

// TestSoftmaxProperties uses testing/quick: outputs are a probability
// distribution and invariant to constant shifts.
func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64, shiftRaw float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		shift := clamp(shiftRaw)
		p := Softmax(xs)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		q := Softmax(shifted)
		for i := range p {
			if math.Abs(p[i]-q[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSparseLinearity checks S·(x+y) == S·x + S·y.
func TestSparseLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		r, c := 2+rng.Intn(6), 2+rng.Intn(6)
		var triples []Triple
		for e := 0; e < r*c/2+1; e++ {
			triples = append(triples, Triple{rng.Intn(r), rng.Intn(c), rng.NormFloat64()})
		}
		s, err := NewSparse(r, c, triples)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(4)
		x, y := randMat(rng, c, k), randMat(rng, c, k)
		xy := x.Clone()
		xy.AddInPlace(y)
		sum := NewMat(r, k)
		s.MulInto(sum, xy)
		sx, sy := NewMat(r, k), NewMat(r, k)
		s.MulInto(sx, x)
		s.MulInto(sy, y)
		sx.AddInPlace(sy)
		for i := range sum.W {
			if math.Abs(sum.W[i]-sx.W[i]) > 1e-9 {
				t.Fatal("sparse linearity broken")
			}
		}
	}
}

// TestAdamStepDirection: for a single-parameter quadratic the first
// Adam step must move the weight toward the minimum.
func TestAdamStepDirection(t *testing.T) {
	f := func(target float64) bool {
		if math.IsNaN(target) || math.IsInf(target, 0) {
			return true
		}
		target = math.Mod(target, 100)
		p := NewZeroParam("w", 1, 1)
		p.W.W[0] = 0
		if target == 0 {
			return true
		}
		opt := NewAdam()
		opt.WeightDecay = 0
		// d/dw (w-target)² = 2(w-target)
		p.Grad = RowVec(2 * (p.W.W[0] - target))
		before := math.Abs(p.W.W[0] - target)
		opt.Step([]*Param{p})
		return math.Abs(p.W.W[0]-target) < before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCrossEntropyMinimum: CE against a one-hot target is minimized
// when logits put all mass on the target class.
func TestCrossEntropyMinimum(t *testing.T) {
	target := SmoothedTargets(1, 3, []int{1}, 0)
	good := FromSlice(1, 3, []float64{-10, 10, -10})
	bad := FromSlice(1, 3, []float64{10, -10, -10})
	tp := NewTape()
	lGood := tp.CrossEntropy(tp.Const(good), target).Val.W[0]
	lBad := tp.CrossEntropy(tp.Const(bad), target).Val.W[0]
	if lGood >= lBad {
		t.Errorf("CE(good)=%v >= CE(bad)=%v", lGood, lBad)
	}
	if lGood > 1e-6 {
		t.Errorf("CE at optimum = %v, want ~0", lGood)
	}
}

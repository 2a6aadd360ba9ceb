package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewMatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMat(0, 3) did not panic")
		}
	}()
	NewMat(0, 3)
}

func TestFromSliceAndAccessors(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Errorf("At wrong: %v", m.W)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Error("Set failed")
	}
	if r := m.Row(1); r[0] != 4 || r[1] != 9 {
		t.Errorf("Row = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestCloneIndependence(t *testing.T) {
	m := RowVec(1, 2, 3)
	c := m.Clone()
	c.W[0] = 99
	if m.W[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestInPlaceOps(t *testing.T) {
	m := RowVec(1, 2)
	m.AddInPlace(RowVec(10, 20))
	if m.W[0] != 11 || m.W[1] != 22 {
		t.Errorf("AddInPlace = %v", m.W)
	}
	m.ScaleInPlace(2)
	if m.W[0] != 22 || m.W[1] != 44 {
		t.Errorf("ScaleInPlace = %v", m.W)
	}
	m.Fill(7)
	if m.W[0] != 7 || m.W[1] != 7 {
		t.Errorf("Fill = %v", m.W)
	}
	m.Zero()
	if m.W[0] != 0 {
		t.Error("Zero failed")
	}
	if got := RowVec(-3, 2).MaxAbs(); got != 3 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMat(2, 2)
	MatMulInto(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if dst.W[i] != w {
			t.Fatalf("MatMulInto = %v, want %v", dst.W, want)
		}
	}
}

func TestTransposeInto(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := NewMat(3, 2)
	TransposeInto(dst, a)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if dst.W[i] != w {
			t.Fatalf("TransposeInto = %v, want %v", dst.W, want)
		}
	}
	// Shapes that cut the 8×8 tiles in both directions.
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {8, 8}, {9, 17}, {16, 3}, {13, 31}} {
		m := NewMat(sh[0], sh[1])
		for i := range m.W {
			m.W[i] = float64(i)
		}
		mt := NewMat(sh[1], sh[0])
		TransposeInto(mt, m)
		for i := 0; i < m.R; i++ {
			for j := 0; j < m.C; j++ {
				if mt.At(j, i) != m.At(i, j) {
					t.Fatalf("%v: TransposeInto[%d][%d] = %v, want %v", sh, j, i, mt.At(j, i), m.At(i, j))
				}
			}
		}
	}
}

func TestXavierRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMat(10, 20)
	m.Xavier(rng)
	limit := math.Sqrt(6.0 / 30.0)
	var nonZero int
	for _, v := range m.W {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", v, limit)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 150 {
		t.Errorf("Xavier left too many zeros: %d non-zero of 200", nonZero)
	}
}

func TestSoftmaxStable(t *testing.T) {
	// Large logits must not overflow.
	out := Softmax([]float64{1000, 1000, 999})
	var sum float64
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax produced %v", out)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	if out[0] != out[1] || out[2] >= out[0] {
		t.Errorf("softmax ordering wrong: %v", out)
	}
}

package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse(2, 2, []Triple{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Error("out-of-range row did not error")
	}
	if _, err := NewSparse(2, 2, []Triple{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Error("negative col did not error")
	}
}

func TestSparseDuplicatesSummed(t *testing.T) {
	s, err := NewSparse(2, 2, []Triple{
		{0, 1, 2}, {0, 1, 3}, {1, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	x := FromSlice(2, 1, []float64{10, 20})
	dst := NewMat(2, 1)
	s.MulInto(dst, x)
	if dst.W[0] != 100 || dst.W[1] != 10 { // row0: 5*20, row1: 1*10
		t.Errorf("MulInto = %v", dst.W)
	}
}

func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, c, k := 3+rng.Intn(8), 3+rng.Intn(8), 2+rng.Intn(5)
		dense := NewMat(r, c)
		var triples []Triple
		for e := 0; e < r*c/2; e++ {
			i, j := rng.Intn(r), rng.Intn(c)
			v := rng.NormFloat64()
			triples = append(triples, Triple{i, j, v})
			dense.W[i*c+j] += v
		}
		s, err := NewSparse(r, c, triples)
		if err != nil {
			t.Fatal(err)
		}
		x := NewMat(c, k)
		x.Xavier(rng)
		want := NewMat(r, k)
		MatMulInto(want, dense, x)
		got := NewMat(r, k)
		s.MulInto(got, x)
		for i := range want.W {
			if math.Abs(want.W[i]-got.W[i]) > 1e-9 {
				t.Fatalf("sparse/dense mismatch at %d: %v vs %v", i, got.W[i], want.W[i])
			}
		}
		// Transpose agreement.
		st, err := s.Transpose()
		if err != nil {
			t.Fatal(err)
		}
		denseT := NewMat(c, r)
		TransposeInto(denseT, dense)
		y := NewMat(r, k)
		y.Xavier(rng)
		wantT := NewMat(c, k)
		MatMulInto(wantT, denseT, y)
		gotT := NewMat(c, k)
		st.MulInto(gotT, y)
		for i := range wantT.W {
			if math.Abs(wantT.W[i]-gotT.W[i]) > 1e-9 {
				t.Fatalf("transpose mismatch at %d", i)
			}
		}
	}
}

func TestRowNormalize(t *testing.T) {
	s, err := NewSparse(3, 3, []Triple{
		{0, 0, 2}, {0, 1, 6}, {1, 2, 5},
		// row 2 empty
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RowNormalize()
	x := FromSlice(3, 1, []float64{1, 1, 1})
	dst := NewMat(3, 1)
	s.MulInto(dst, x)
	if math.Abs(dst.W[0]-1) > 1e-12 || math.Abs(dst.W[1]-1) > 1e-12 || dst.W[2] != 0 {
		t.Errorf("normalized row sums = %v", dst.W)
	}
}

// TestSparseSub holds Sub to its definition: row r of the submatrix is
// row rows[r] of s, entries in the same order with the same values,
// columns renumbered through cols; and a cols missing a stored column
// panics.
func TestSparseSub(t *testing.T) {
	s, err := NewSparse(4, 6, []Triple{
		{0, 1, 1}, {0, 4, 2}, {1, 0, 3}, {2, 2, 4}, {2, 5, 5}, {3, 4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 2, 3}
	cols := s.Cols(rows)
	if want := []int{1, 2, 4, 5}; !slices.Equal(cols, want) {
		t.Fatalf("Cols = %v, want %v", cols, want)
	}
	sub := s.Sub(rows, cols)
	if sub.R != 3 || sub.C != 4 || sub.NNZ() != 5 {
		t.Fatalf("Sub is %d×%d with %d entries", sub.R, sub.C, sub.NNZ())
	}
	for r, i := range rows {
		wantC, wantV := s.Row(i)
		c, v := sub.Row(r)
		global := make([]int, len(c))
		for k, at := range c {
			global[k] = cols[at]
		}
		if !slices.Equal(global, wantC) || !slices.Equal(v, wantV) {
			t.Errorf("row %d: cols %v vals %v, want %v %v", i, global, v, wantC, wantV)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Sub with a missing column did not panic")
		}
	}()
	s.Sub(rows, []int{1, 2, 4})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := NewSparse(4, 3, []Triple{
		{0, 0, 1.5}, {0, 2, -0.5}, {1, 1, 2}, {3, 0, 0.7}, {3, 2, 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParam("x", 3, 2, rng)
	checkGrad(t, "spmm", p, func(tp *Tape) *T {
		y := tp.SpMM(s, st, tp.Var(p))
		return tp.SumAll(tp.Mul(y, y))
	})
}

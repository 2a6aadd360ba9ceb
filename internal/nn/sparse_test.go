package nn

import (
	"fmt"
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
	p := NewParam("x", 3, 2, rng)
	checkGrad(t, "spmm", p, func(tp *Tape) *T {
		y := tp.SpMM(s, tp.Var(p))
		return tp.SumAll(tp.Mul(y, y))
	})
}

// refTranspose is the transpose Sparse.Transpose replaced — a round
// trip of the entries through NewSparse's sort — kept verbatim as the
// oracle.
func refTranspose(s *Sparse) (*Sparse, error) {
	triples := make([]Triple, 0, s.NNZ())
	for i := 0; i < s.R; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			triples = append(triples, Triple{Row: s.colIdx[k], Col: i, Val: s.vals[k]})
		}
	}
	t, err := NewSparse(s.C, s.R, triples)
	if err != nil {
		return nil, fmt.Errorf("nn: transpose: %w", err)
	}
	return t, nil
}

// TestTransposeMatchesNewSparse holds the counting-sort transpose's
// rowPtr, colIdx and vals (bitwise, −0 and NaN included) to the
// NewSparse round trip on random matrices — empty rows and columns,
// duplicate triples, restricted Sub matrices — and on empty ones, and
// checks that a corrupted column is still an error.
func TestTransposeMatchesNewSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	same := func(what string, s *Sparse) {
		t.Helper()
		got, err := s.Transpose()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := refTranspose(s)
		if err != nil {
			t.Fatal(err)
		}
		bits := func(v []float64) []uint64 {
			out := make([]uint64, len(v))
			for i, x := range v {
				out[i] = math.Float64bits(x)
			}
			return out
		}
		if got.R != want.R || got.C != want.C || !slices.Equal(got.rowPtr, want.rowPtr) ||
			!slices.Equal(got.colIdx, want.colIdx) || !slices.Equal(bits(got.vals), bits(want.vals)) {
			t.Fatalf("%s: transpose %d×%d %v %v %v, want %d×%d %v %v %v", what,
				got.R, got.C, got.rowPtr, got.colIdx, got.vals, want.R, want.C, want.rowPtr, want.colIdx, want.vals)
		}
	}
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		var triples []Triple
		for e := rng.Intn(r*c + 1); e > 0; e-- {
			v := rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = 0
			case 2:
				v = hwNaN
			}
			triples = append(triples, Triple{rng.Intn(r), rng.Intn(c), v})
		}
		s, err := NewSparse(r, c, triples)
		if err != nil {
			t.Fatal(err)
		}
		// NewSparse turns −0 into +0; give some stored entries −0 back,
		// as a caller's in-place scaling could.
		for k := range s.vals {
			if rng.Intn(6) == 0 {
				s.vals[k] = math.Copysign(0, -1)
			}
		}
		what := fmt.Sprintf("trial %d, %d×%d, %d entries", trial, r, c, s.NNZ())
		same(what, s)
		var rows []int
		for i := 0; i < r; i++ {
			if rng.Intn(2) == 0 {
				rows = append(rows, i)
			}
		}
		same(what+", Sub", s.Sub(rows, s.Cols(rows)))
	}
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 2}} {
		s, err := NewSparse(sh[0], sh[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("empty %d×%d", sh[0], sh[1]), s)
	}
	bad := &Sparse{R: 1, C: 2, rowPtr: []int{0, 1}, colIdx: []int{2}, vals: []float64{1}}
	if _, err := bad.Transpose(); err == nil {
		t.Error("a column outside the shape did not error")
	}
}

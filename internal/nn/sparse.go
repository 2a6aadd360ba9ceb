package nn

import (
	"fmt"
	"slices"
	"sort"
)

// Sparse is an immutable CSR sparse matrix used for graph adjacency in
// message passing. Build with NewSparse.
type Sparse struct {
	R, C   int
	rowPtr []int
	colIdx []int
	vals   []float64
}

// Triple is one (row, col, value) entry for sparse construction.
type Triple struct {
	Row, Col int
	Val      float64
}

// NewSparse builds an R×C CSR matrix from triples. Duplicate (row, col)
// entries are summed. Out-of-range indices return an error.
func NewSparse(r, c int, triples []Triple) (*Sparse, error) {
	for _, t := range triples {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			return nil, fmt.Errorf("nn: sparse entry (%d,%d) outside %d×%d", t.Row, t.Col, r, c)
		}
	}
	sorted := append([]Triple(nil), triples...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	s := &Sparse{R: r, C: c, rowPtr: make([]int, r+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		s.colIdx = append(s.colIdx, sorted[i].Col)
		s.vals = append(s.vals, v)
		s.rowPtr[sorted[i].Row+1] = len(s.colIdx)
		i = j
	}
	for i := 1; i <= r; i++ {
		if s.rowPtr[i] < s.rowPtr[i-1] {
			s.rowPtr[i] = s.rowPtr[i-1]
		}
	}
	return s, nil
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// Row returns row i's stored columns, ascending, and their values. Both
// slices alias the matrix; do not modify them.
func (s *Sparse) Row(i int) (cols []int, vals []float64) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi:hi], s.vals[lo:hi:hi]
}

// Cols returns the distinct columns stored in the given rows,
// ascending.
func (s *Sparse) Cols(rows []int) []int {
	var cols []int
	for _, i := range rows {
		c, _ := s.Row(i)
		cols = append(cols, c...)
	}
	slices.Sort(cols)
	return slices.Compact(cols)
}

// Sub returns the len(rows)×len(cols) submatrix of s whose row r is
// row rows[r] of s, each entry's column renumbered to its index in
// cols. cols must be ascending and hold every column those rows store
// (Cols(rows) or a superset); it panics otherwise (programmer error).
// Entries keep their values and, since the renumbering is monotone,
// their order within a row.
func (s *Sparse) Sub(rows, cols []int) *Sparse {
	out := &Sparse{R: len(rows), C: len(cols), rowPtr: make([]int, len(rows)+1)}
	for r, i := range rows {
		c, v := s.Row(i)
		for k, col := range c {
			at, ok := slices.BinarySearch(cols, col)
			if !ok {
				panic(fmt.Sprintf("nn: Sparse.Sub: row %d stores column %d, not in cols", i, col))
			}
			out.colIdx = append(out.colIdx, at)
			out.vals = append(out.vals, v[k])
		}
		out.rowPtr[r+1] = len(out.colIdx)
	}
	return out
}

// RowNormalize scales each row to sum to 1 (rows summing to 0 are left
// unchanged), implementing the 1/|N| neighbor averaging of Eq. 4 —
// weighted by edge values, so weighted relations (CO counts) average
// proportionally.
func (s *Sparse) RowNormalize() {
	for i := 0; i < s.R; i++ {
		var sum float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			sum += s.vals[k]
		}
		if sum == 0 {
			continue
		}
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			s.vals[k] /= sum
		}
	}
}

// Transpose returns a new CSR matrix equal to sᵀ, built by a counting
// sort on the column: one pass counts each column's entries, and a scan
// of the rows in ascending order places every entry, so each transposed
// row lists its columns ascending. A row stores a column at most once,
// so no entries merge; each value is stored as 0 + v, the sum
// NewSparse makes of one entry (a −0 becomes +0). An error is only
// possible for a corrupted receiver (a column outside the declared
// shape), matching the package's construction error discipline.
func (s *Sparse) Transpose() (*Sparse, error) {
	nnz := s.NNZ()
	t := &Sparse{R: s.C, C: s.R, rowPtr: make([]int, s.C+1), colIdx: make([]int, nnz), vals: make([]float64, nnz)}
	for _, c := range s.colIdx {
		if c < 0 || c >= s.C {
			return nil, fmt.Errorf("nn: transpose: sparse entry column %d outside %d×%d", c, s.R, s.C)
		}
		t.rowPtr[c+1]++
	}
	for c := 0; c < s.C; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	next := slices.Clone(t.rowPtr[:s.C])
	for i := 0; i < s.R; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			c := s.colIdx[k]
			t.colIdx[next[c]] = i
			t.vals[next[c]] = 0 + s.vals[k]
			next[c]++
		}
	}
	return t, nil
}

// MulInto computes dst = s · x for dense x. dst must be s.R×x.C and
// x must be s.C×x.C.
func (s *Sparse) MulInto(dst, x *Mat) {
	if x.R != s.C || dst.R != s.R || dst.C != x.C {
		panic(fmt.Sprintf("nn: Sparse.MulInto: %d×%d · %d×%d -> %d×%d", s.R, s.C, x.R, x.C, dst.R, dst.C))
	}
	dst.Zero()
	for i := 0; i < s.R; i++ {
		dRow := dst.Row(i)
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			v := s.vals[k]
			xRow := x.Row(s.colIdx[k])
			for j, xv := range xRow {
				dRow[j] += v * xv
			}
		}
	}
}

// SpMM multiplies a constant sparse matrix by a dense tensor: out =
// s·x, with gradient dX += sᵀ·dOut. The backward pass builds sᵀ when
// it runs, so a pass that never calls Backward never transposes.
func (tp *Tape) SpMM(s *Sparse, x *T) *T {
	val := NewMat(s.R, x.C())
	s.MulInto(val, x.Val)
	var out *T
	out = tp.node(val, func() {
		st, err := s.Transpose()
		if err != nil {
			panic(err) // s's columns indexed x's rows in MulInto above
		}
		g := NewMat(x.R(), x.C())
		st.MulInto(g, out.Grad)
		x.grad().AddInPlace(g)
	}, x)
	return out
}

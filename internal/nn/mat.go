// Package nn is a small, dependency-free neural-network library built
// for the LHMM reproduction: dense float64 matrices, tape-based
// reverse-mode automatic differentiation, the layers the paper's
// architecture needs (linear, MLP, additive attention, R-GCN message
// passing is composed from these), cross-entropy with label smoothing,
// and the Adam optimizer (§IV, §V-A2).
//
// It substitutes for the deep-learning stack the paper used (see
// DESIGN.md §2): the math is the same, validated by finite-difference
// gradient checks in the test suite, at laptop scale.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mat is a dense row-major matrix of float64.
type Mat struct {
	R, C int
	W    []float64
}

// NewMat allocates an R×C zero matrix. It panics on non-positive
// dimensions (programmer error).
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %d×%d", r, c))
	}
	return &Mat{R: r, C: c, W: make([]float64, r*c)}
}

// FromSlice builds an R×C matrix from row-major data. It panics when
// len(data) != r*c.
func FromSlice(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: FromSlice: %d values for %d×%d", len(data), r, c))
	}
	m := NewMat(r, c)
	copy(m.W, data)
	return m
}

// RowVec builds a 1×n matrix from the values.
func RowVec(vals ...float64) *Mat { return FromSlice(1, len(vals), vals) }

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.W[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.W[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.W, m.W)
	return out
}

// Zero sets every element to 0.
func (m *Mat) Zero() {
	for i := range m.W {
		m.W[i] = 0
	}
}

// Fill sets every element to v.
func (m *Mat) Fill(v float64) {
	for i := range m.W {
		m.W[i] = v
	}
}

// AddInPlace adds o elementwise. It panics on shape mismatch.
func (m *Mat) AddInPlace(o *Mat) {
	m.mustSameShape(o, "AddInPlace")
	for i := range m.W {
		m.W[i] += o.W[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Mat) ScaleInPlace(s float64) {
	for i := range m.W {
		m.W[i] *= s
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.W[i*m.C : (i+1)*m.C] }

// Rows returns rows [lo, hi) as a matrix aliasing the same storage
// (row-major, so a row range is one contiguous slice).
func (m *Mat) Rows(lo, hi int) *Mat {
	return &Mat{R: hi - lo, C: m.C, W: m.W[lo*m.C : hi*m.C : hi*m.C]}
}

// MaxAbs returns the largest absolute element value.
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for _, v := range m.W {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Xavier fills the matrix with Glorot-uniform values scaled by its
// shape, the initialization used for every trainable weight.
func (m *Mat) Xavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.R+m.C))
	for i := range m.W {
		m.W[i] = (rng.Float64()*2 - 1) * limit
	}
}

func (m *Mat) mustSameShape(o *Mat, op string) {
	if m.R != o.R || m.C != o.C {
		panic(fmt.Sprintf("nn: %s: shape mismatch %d×%d vs %d×%d", op, m.R, m.C, o.R, o.C))
	}
}

// matmulWorkers bounds the goroutines a single large MatMulInto may
// fan out to: GOMAXPROCS. Atomic because the package's tests change it
// (SetMatMulWorkers, export_test.go) while products run.
var matmulWorkers atomic.Int64

func init() { matmulWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// matmulParallelMinFlops is the approximate multiply-add count below
// which a product stays on the calling goroutine: 256×128 · 128×128
// takes 0.40 ms on the AVX2 kernel (0.33 ms forked in two) and 2.0 ms
// on the portable path, on a 2-vCPU x86-64 host. Forking a smaller
// product saves at most a tenth of a millisecond, makes the caller's
// latency depend on when the woken thread gets scheduled, and only
// oversubscribes the cores when several requests are matching at once
// — no product of a dim-128 match reaches it; training's encoder
// products and the per-model table builds do.
const matmulParallelMinFlops = 1 << 22

// matmulPortable keeps every product, two-logit read-out and ExpInto on
// its portable path when set (SetMatMulPortable, export_test.go);
// kernelProducts counts the products kernel4x8 computed,
// reluKernelCalls the ApplyReLU2Rows calls reluRead2x4 served and
// expKernelBlocks the blocks of four values exp4 computed, so the tests
// can show the kernels ran.
var (
	matmulPortable  atomic.Bool
	kernelProducts  atomic.Int64
	reluKernelCalls atomic.Int64
	expKernelBlocks atomic.Int64
)

// MatMulInto computes dst = a·b. Shapes must agree; dst must be
// preallocated a.R×b.C. Used by both the forward pass and the backward
// closures. On amd64 with AVX2, a b that is finite with a multiple of 8
// columns goes through an assembly micro-kernel (useKernel) for each
// block of four rows, and matMulRows computes the rows left over; both
// are bit-identical to the one-row loop (refMatMulRows in the tests).
// Large products are split into blocks of whole four-row groups across a
// bounded worker pool (matmulWorkers); the result is bit-identical to
// the sequential order because every dst row is produced by one worker
// with an unchanged accumulation order.
func MatMulInto(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("nn: MatMulInto: %d×%d · %d×%d -> %d×%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	kernel := useKernel(a, b)
	if kernel {
		kernelProducts.Add(1)
	}
	workers := int(matmulWorkers.Load())
	if workers > a.R {
		workers = a.R
	}
	if workers > 1 && a.R*a.C*b.C >= matmulParallelMinFlops {
		var wg sync.WaitGroup
		chunk := ((a.R+workers-1)/workers + 3) &^ 3
		for lo := 0; lo < a.R; lo += chunk {
			hi := min(lo+chunk, a.R)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				mulRows(dst, a, b, lo, hi, kernel)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	mulRows(dst, a, b, 0, a.R, kernel)
}

// mulRows computes dst rows [lo, hi) of a·b: with kernel4x8 in blocks
// of four when kernel is set, the rest with matMulRows.
func mulRows(dst, a, b *Mat, lo, hi int, kernel bool) {
	if kernel {
		lo = kernelRows(dst, a, b, lo, hi, false)
	}
	matMulRows(dst, a, b, lo, hi)
}

// MatMulAddInto computes dst += a·b: each element continues from its own
// value in dst and adds a[i][k]·b[k][j] over k ascending, with no skip of
// a zero multiplier. Shapes must agree. On amd64 with AVX2, b's with a
// multiple of 8 columns go through kernel4x8 for each block of four rows
// (it loads the tile from dst instead of zeroing it), and matMulAddRows
// computes the rest. Neither path skips anything, so they are
// bit-identical for any a and b, NaN and ±Inf included. Always
// sequential: its callers add small blocks.
func MatMulAddInto(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("nn: MatMulAddInto: %d×%d · %d×%d -> %d×%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	lo := 0
	if kernelShape(a, b) {
		kernelProducts.Add(1)
		lo = kernelRows(dst, a, b, 0, a.R, true)
	}
	matMulAddRows(dst, a, b, lo, a.R)
}

// matMulAddRows adds a·b to dst rows [lo, hi), one row at a time:
// d[j] += a[i][k]·b[k][j] over k ascending.
func matMulAddRows(dst, a, b *Mat, lo, hi int) {
	n, kn := b.C, a.C
	for i := lo; i < hi; i++ {
		dr := dst.W[i*n : (i+1)*n]
		for k, av := range a.W[i*kn : (i+1)*kn] {
			for j, bv := range b.W[k*n : (k+1)*n][:len(dr)] {
				dr[j] += av * bv
			}
		}
	}
}

// matMulRows computes dst rows [lo, hi) of a·b, four rows per pass over
// each row of b, so one load of b[k][j] feeds four accumulations. A k
// where one of the four multipliers is zero, and the rows past the last
// block of four, go one row at a time (axpy). The column loops are
// unrolled, by two in the four-row pass and by four in axpy, with scalar
// tails. Each dst element is still summed on its own from +0 over k
// ascending, and a zero multiplier a[i][k] is still skipped per
// (row, k): only the interleaving across elements differs from a
// one-row loop, so the result is bit-identical to it (refMatMulRows in
// the tests).
func matMulRows(dst, a, b *Mat, lo, hi int) {
	n, kn := b.C, a.C
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a.W[i*kn : (i+1)*kn]
		a1 := a.W[(i+1)*kn : (i+2)*kn][:len(a0)]
		a2 := a.W[(i+2)*kn : (i+3)*kn][:len(a0)]
		a3 := a.W[(i+3)*kn : (i+4)*kn][:len(a0)]
		d0 := dst.W[i*n : (i+1)*n]
		d1 := dst.W[(i+1)*n : (i+2)*n]
		d2 := dst.W[(i+2)*n : (i+3)*n]
		d3 := dst.W[(i+3)*n : (i+4)*n]
		clear(d0)
		clear(d1)
		clear(d2)
		clear(d3)
		for k, v0 := range a0 {
			v1, v2, v3 := a1[k], a2[k], a3[k]
			br := b.W[k*n : (k+1)*n]
			if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
				axpy(d0, v0, br)
				axpy(d1, v1, br)
				axpy(d2, v2, br)
				axpy(d3, v3, br)
				continue
			}
			d0, d1, d2, d3 := d0[:len(br)], d1[:len(br)], d2[:len(br)], d3[:len(br)]
			j := 0
			for ; j+2 <= len(br); j += 2 {
				b0, b1 := br[j], br[j+1]
				d0[j] += v0 * b0
				d0[j+1] += v0 * b1
				d1[j] += v1 * b0
				d1[j+1] += v1 * b1
				d2[j] += v2 * b0
				d2[j+1] += v2 * b1
				d3[j] += v3 * b0
				d3[j+1] += v3 * b1
			}
			for ; j < len(br); j++ {
				bv := br[j]
				d0[j] += v0 * bv
				d1[j] += v1 * bv
				d2[j] += v2 * bv
				d3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		dr := dst.W[i*n : (i+1)*n]
		clear(dr)
		for k, av := range a.W[i*kn : (i+1)*kn] {
			axpy(dr, av, b.W[k*n:(k+1)*n])
		}
	}
}

// axpy adds av·b to d elementwise, and nothing when av is zero (either
// sign): the per-(row, k) skip of matMulRows.
func axpy(d []float64, av float64, b []float64) {
	if av == 0 {
		return
	}
	d = d[:len(b)]
	j := 0
	for ; j+4 <= len(b); j += 4 {
		bb, dd := b[j:j+4:j+4], d[j:j+4:j+4]
		dd[0] += av * bb[0]
		dd[1] += av * bb[1]
		dd[2] += av * bb[2]
		dd[3] += av * bb[3]
	}
	for ; j < len(b); j++ {
		d[j] += av * b[j]
	}
}

// TransposeInto computes dst = mᵀ. dst must be preallocated m.C×m.R.
func TransposeInto(dst, m *Mat) {
	if dst.R != m.C || dst.C != m.R {
		panic("nn: TransposeInto: shape mismatch")
	}
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			dst.W[j*dst.C+i] = m.W[i*m.C+j]
		}
	}
}

package nn

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, read once with the package's own CPUID and XGETBV.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// finiteAVX2 reports whether the first len(x)&^7 values of x are finite.
//
//go:noescape
func finiteAVX2(x []float64) bool

// kernel4x8 computes the 4×n block d = a·b, a 4×kn and b kn×n, for n a
// positive multiple of 8 and kn ≥ 1.
//
//go:noescape
func kernel4x8(d, a, b []float64, kn, n int)

// useKernel reports whether MatMulInto may compute a·b with kernel4x8:
// AVX2, at least one block of four rows, whole 8-column tiles, and a
// finite b. The kernel has no per-(row, k) skip: it adds a[i][k]·b[k][j]
// for a zero a[i][k] too, where matMulRows adds nothing. With b finite
// that product is ±0, and an accumulator that starts at +0 is never −0
// (under round-to-nearest x + y is −0 only when both are), so adding it
// changes nothing and the sums are bit-equal. A NaN or ±Inf in b would
// make 0·b NaN, so such a b stays on matMulRows; NaN and ±Inf in a take
// the kernel, since neither path skips them.
func useKernel(a, b *Mat) bool {
	if !haveAVX2 || matmulPortable.Load() || a.R < 4 || a.C < 1 || b.C < 8 || b.C%8 != 0 {
		return false
	}
	return finiteAVX2(b.W) // len(b.W) is a multiple of 8
}

// kernelRows computes dst rows [lo, hi) of a·b in blocks of four with
// kernel4x8 and returns the first row it left for matMulRows.
func kernelRows(dst, a, b *Mat, lo, hi int) int {
	n, kn := b.C, a.C
	for ; lo+4 <= hi; lo += 4 {
		kernel4x8(dst.W[lo*n:(lo+4)*n], a.W[lo*kn:(lo+4)*kn], b.W[:kn*n], kn, n)
	}
	return lo
}

package nn

import "math"

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

// haveFMA reports whether the CPU has FMA3 (CPUID.1:ECX bit 12).
var haveFMA = func() bool { _, _, ecx, _ := cpuid(1, 0); return ecx&(1<<12) != 0 }()

// useExp4 reports whether exp4 may stand in for math.Exp: the CPU has
// AVX2 and FMA, and exp4 reproduces math.Exp bit for bit on every value
// of expProbe. math's amd64 Exp takes the FMA sequence exp4 replays only
// when internal/cpu reports AVX and FMA, which GODEBUG=cpu.fma=off or
// cpu.avx=off switch off on any CPU, and that sequence belongs to the
// toolchain, which may change it; the probe asks math.Exp itself, once
// at start-up, rather than assume either.
var useExp4 = haveAVX2 && haveFMA && exp4MatchesProbe()

// expProbe holds eight arguments where math's FMA sequence and its
// MULSD/SUBSD sequence round to neighbouring results (the FMA result is
// the lower one for three of them, the higher for five), then both ends
// of exp4's range, 0 and 1.
var expProbe = [12]float64{
	439.09594538613555, -0.10563827066954634, -0.8693488829710279, -0.37639117354706986,
	-254.7185559375382, -0.13466498699843898, -212.86445092048797, -0.9703287187251135,
	700, -700, 0, 1,
}

func exp4MatchesProbe() bool {
	var got [len(expProbe)]float64
	if exp4(got[:], expProbe[:]) != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// finiteAVX2 reports whether the first len(x)&^7 values of x are finite.
//
//go:noescape
func finiteAVX2(x []float64) bool

// kernel4x8 computes the 4×n block d = a·b, or d += a·b when acc is
// set, a 4×kn and b kn×n, for n a positive multiple of 8 and kn ≥ 1.
//
//go:noescape
func kernel4x8(d, a, b []float64, kn, n int, acc bool)

// reluRead2x4 sets dst[2r], dst[2r+1] to ReLU(h[r])·w + b for the four
// rows of h (4×kn, kn a positive multiple of 4), w kn×2 and b the two
// biases.
//
//go:noescape
func reluRead2x4(dst, h, w, b []float64, kn int)

// exp4 sets dst[i] = math.Exp(src[i]) for the leading blocks of four
// values of src up to the first block holding a value outside
// [−700, 700] or a NaN, and returns how many values it wrote.
//
//go:noescape
func exp4(dst, src []float64) int

// kernelShape reports whether kernel4x8 can compute a·b: AVX2, at least
// one block of four rows, and whole 8-column tiles.
func kernelShape(a, b *Mat) bool {
	return haveAVX2 && !matmulPortable.Load() && a.R >= 4 && a.C >= 1 && b.C >= 8 && b.C%8 == 0
}

// useKernel reports whether MatMulInto may compute a·b with kernel4x8:
// the shape kernelShape admits, and a finite b. The kernel has no
// per-(row, k) skip: it adds a[i][k]·b[k][j] for a zero a[i][k] too,
// where matMulRows adds nothing. With b finite that product is ±0, and
// an accumulator that starts at +0 is never −0 (under round-to-nearest
// x + y is −0 only when both are), so adding it changes nothing and the
// sums are bit-equal. A NaN or ±Inf in b would make 0·b NaN, so such a
// b stays on matMulRows; NaN and ±Inf in a take the kernel, since
// neither path skips them. MatMulAddInto skips nothing on either path,
// so it needs the shape alone.
func useKernel(a, b *Mat) bool {
	return kernelShape(a, b) && finiteAVX2(b.W) // len(b.W) is a multiple of 8
}

// kernelRows computes dst rows [lo, hi) of a·b, or adds a·b to them
// when acc is set, in blocks of four with kernel4x8 and returns the
// first row it left for the portable loop.
func kernelRows(dst, a, b *Mat, lo, hi int, acc bool) int {
	n, kn := b.C, a.C
	for ; lo+4 <= hi; lo += 4 {
		kernel4x8(dst.W[lo*n:(lo+4)*n], a.W[lo*kn:(lo+4)*kn], b.W[:kn*n], kn, n, acc)
	}
	return lo
}

// reluRows sets dst[2r], dst[2r+1] to ReLU(h[r])·w + b with reluRead2x4
// for every whole block of four rows of h, and returns the first row it
// left for ApplyReLU2; it leaves every row when the CPU lacks AVX2, h.C
// is not a positive multiple of 4 or w is not all finite. ApplyReLU2
// skips a unit v <= 0; the kernel's ReLU turns it into +0 or −0 and adds
// its ±0 product, which with w finite changes nothing (useKernel's
// argument: the sums start at +0 and are never −0).
func reluRows(dst []float64, h *Mat, w, b []float64) int {
	if !haveAVX2 || matmulPortable.Load() || h.R < 4 || h.C < 4 || h.C%4 != 0 || !finiteAVX2(w) {
		return 0 // len(w) = 2·h.C, a multiple of 8
	}
	reluKernelCalls.Add(1)
	kn, r := h.C, 0
	for ; r+4 <= h.R; r += 4 {
		reluRead2x4(dst[2*r:2*r+8], h.W[r*kn:(r+4)*kn], w, b, kn)
	}
	return r
}

// expRows sets dst[i] = math.Exp(src[i]) with exp4 for every whole block
// of four values and returns len(src)&^3; it returns 0, leaving every
// value to ExpInto's loop, unless useExp4. A block exp4
// refuses (a value outside [−700, 700] or a NaN, where math.Exp may
// branch) is computed by math.Exp here and exp4 resumes after it.
func expRows(dst, src []float64) int {
	if !useExp4 || matmulPortable.Load() {
		return 0
	}
	n := len(src) &^ 3
	dst, src = dst[:n], src[:n]
	i, blocks := 0, 0
	for i < n {
		done := exp4(dst[i:], src[i:])
		blocks += done / 4
		i += done
		for end := min(i+4, n); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
	if blocks > 0 {
		expKernelBlocks.Add(int64(blocks))
	}
	return n
}

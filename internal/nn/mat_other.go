//go:build !amd64

package nn

// The AVX2 product kernel is amd64-only; elsewhere every product runs
// matMulRows.

const haveAVX2 = false

func useKernel(a, b *Mat) bool { return false }

func kernelRows(dst, a, b *Mat, lo, hi int) int { return lo }

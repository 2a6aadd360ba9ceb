//go:build !amd64

package nn

// The AVX2 kernels are amd64-only; elsewhere every product runs
// matMulRows or matMulAddRows, and every two-logit read-out ApplyReLU2.

const haveAVX2 = false

func useKernel(a, b *Mat) bool { return false }

func kernelShape(a, b *Mat) bool { return false }

func kernelRows(dst, a, b *Mat, lo, hi int, acc bool) int { return lo }

func reluRows(dst []float64, h *Mat, w, b []float64) int { return 0 }

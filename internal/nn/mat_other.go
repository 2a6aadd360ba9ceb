//go:build !amd64

package nn

// The AVX2 kernels are amd64-only; elsewhere every product runs
// matMulRows or matMulAddRows, every two-logit read-out ApplyReLU2, and
// every ExpInto value math.Exp.

const haveAVX2, haveFMA, useExp4 = false, false, false

func useKernel(a, b *Mat) bool { return false }

func kernelShape(a, b *Mat) bool { return false }

func kernelRows(dst, a, b *Mat, lo, hi int, acc bool) int { return lo }

func reluRows(dst []float64, h *Mat, w, b []float64) int { return 0 }

func expRows(dst, src []float64) int { return 0 }

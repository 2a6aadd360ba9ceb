package nn

import "runtime"

// SetMatMulWorkers bounds the worker pool large matrix products fan out
// to (n < 1 resets to GOMAXPROCS) and returns the previous setting, so
// tests can hold row-parallel products to sequential ones.
func SetMatMulWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(matmulWorkers.Swap(int64(n)))
}

// SetMatMulPortable keeps every product on the portable matMulRows or
// matMulAddRows, and every two-logit read-out on ApplyReLU2, when on,
// instead of the AVX2 kernels where their gates allow them, and returns
// the previous setting.
func SetMatMulPortable(on bool) bool { return matmulPortable.Swap(on) }

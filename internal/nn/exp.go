package nn

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every value of src, bit for
// bit; dst must hold len(src) values and may be src itself. On amd64
// with AVX2 and FMA, each whole block of four values whose every value
// lies in [−700, 700] goes through an assembly kernel (expRows) that
// replays math's own FMA sequence on four lanes; every other block, the
// tail and every value on other hosts go through math.Exp.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i := expRows(dst, src); i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

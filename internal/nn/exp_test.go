package nn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expEdges are the values that decide ExpInto's exactness: signed
// zeros, the smallest and largest subnormals and the smallest normal,
// both ends of the kernel's range [−700, 700] and the values just
// outside it, the arguments where math.Exp goes denormal (−708.4),
// underflows to 0 (−745.2) and overflows (709.79; 709.78 is just under
// its threshold), NaN and both infinities.
var expEdges = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - math.SmallestNonzeroFloat64, -(0x1p-1022 - math.SmallestNonzeroFloat64),
	0x1p-1022,
	700, -700, math.Nextafter(700, 800), math.Nextafter(-700, -800),
	-708.4, -745.2, 709.78, 709.79,
	hwNaN, math.Inf(1), math.Inf(-1),
}

// TestExpIntoBitEqual holds ExpInto to math.Exp with bitwise equality on
// both paths, into a separate dst and in place: over a million draws
// from [−700, 700], [−20, 0], [−1, 0] and ±1e-8; over expEdges; with
// each edge as the one lane of a block outside ordinary values; and at
// lengths 0–9. Where useExp4 holds, the kernel must compute exactly the
// whole blocks of four whose every value lies in [−700, 700].
//
// It also holds the start-up probe. On an AVX2 and FMA host useExp4 must
// hold, so a toolchain whose math.Exp no longer matches exp4 fails here
// instead of quietly losing the kernel; and the test runs itself again
// with GODEBUG=cpu.fma=off and with cpu.avx=off, under which math.Exp
// takes its MULSD/SUBSD sequence: there the probe must turn exp4 off and
// ExpInto must still equal math.Exp.
func TestExpIntoBitEqual(t *testing.T) {
	if haveAVX2 && haveFMA {
		godebug := os.Getenv("GODEBUG")
		mathFMAOff := false
		for _, off := range []string{"cpu.fma=off", "cpu.avx=off", "cpu.all=off"} {
			mathFMAOff = mathFMAOff || strings.Contains(godebug, off)
		}
		if useExp4 == mathFMAOff {
			t.Fatalf("useExp4 = %v with GODEBUG=%q: the probe disagrees with math.Exp's sequence", useExp4, godebug)
		}
		if !mathFMAOff {
			for _, off := range []string{"cpu.fma=off", "cpu.avx=off"} {
				cmd := exec.Command(os.Args[0], "-test.run=^TestExpIntoBitEqual$")
				cmd.Env = append(os.Environ(), "GODEBUG="+off)
				if out, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("GODEBUG=%s: %v\n%s", off, err, out)
				}
			}
		}
	}
	kernels(t, func(t *testing.T, portable bool) {
		kernel := useExp4 && !portable
		if !portable && !kernel {
			t.Log("exp4 is off (no AVX2 and FMA, or math.Exp takes another sequence): every value runs math.Exp")
		}
		check := func(what string, src []float64) {
			t.Helper()
			want := int64(0)
			for b := 0; kernel && b+4 <= len(src); b += 4 {
				in := true
				for _, x := range src[b : b+4] {
					in = in && math.Abs(x) <= 700
				}
				if in {
					want++
				}
			}
			for _, inPlace := range []bool{false, true} {
				dst := make([]float64, len(src))
				before := expKernelBlocks.Load()
				if inPlace {
					copy(dst, src)
					ExpInto(dst, dst)
				} else {
					ExpInto(dst, src)
				}
				ran := expKernelBlocks.Load() - before
				for i, x := range src {
					if e := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(e) {
						t.Fatalf("%s, in place %v: exp(%v) at %d is %v (%#x), math.Exp %v (%#x)",
							what, inPlace, x, i, dst[i], math.Float64bits(dst[i]), e, math.Float64bits(e))
					}
				}
				if ran != want {
					t.Fatalf("%s, in place %v: the kernel computed %d blocks, want %d", what, inPlace, ran, want)
				}
			}
		}

		rng := rand.New(rand.NewSource(44))
		const per = 1 << 18
		draws := make([]float64, 0, 4*per)
		for _, r := range [][2]float64{{-700, 700}, {-20, 0}, {-1, 0}, {-1e-8, 1e-8}} {
			for i := 0; i < per; i++ {
				draws = append(draws, r[0]+(r[1]-r[0])*rng.Float64())
			}
		}
		check("draws", draws)
		check("edges", expEdges)

		ordinary := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = 10 * rng.NormFloat64()
			}
			return v
		}
		for _, e := range expEdges {
			for lane := 0; lane < 4; lane++ {
				src := ordinary(13)
				src[4+lane] = e
				check(fmt.Sprintf("%v in lane %d of the second block", e, lane), src)
			}
		}
		for n := 0; n <= 9; n++ {
			check(fmt.Sprintf("length %d", n), ordinary(n))
		}
	})
}

// BenchmarkExpInto times 1800 exponentials — the explicit similarities
// of one Viterbi step's 30×30 fan-out — with arguments in [−20, 0], on
// the portable path and the AVX2 kernel.
func BenchmarkExpInto(b *testing.B) {
	defer SetMatMulPortable(SetMatMulPortable(false))
	for _, kernel := range []string{"portable", "avx2"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			if kernel == "avx2" && !useExp4 {
				b.Skip("exp4 is off")
			}
			SetMatMulPortable(kernel == "portable")
			rng := rand.New(rand.NewSource(46))
			src := make([]float64, 1800)
			for i := range src {
				src[i] = -20 * rng.Float64()
			}
			dst := make([]float64, len(src))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ExpInto(dst, src)
			}
		})
	}
}

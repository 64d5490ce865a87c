package vmath

import (
	"math"
	"testing"
)

// FuzzVmathKernels fuzzes two float64 seeds into a shared input set and
// checks (a) the exp/log kernels against the stdlib bit for bit and
// (b) the portable set against every alternative implementation set on
// this machine (the AVX2 assembly where supported) across
// all kernels, including the awkward lengths that pin SIMD group bail
// and tail handling.
func FuzzVmathKernels(f *testing.F) {
	f.Add(0.0, 0.0)
	f.Add(1.5, -3.25)
	f.Add(709.4, -745.0)
	f.Add(math.Inf(1), math.SmallestNonzeroFloat64)
	f.Add(2.2250738585072009e-308, 1.0/(1<<28))
	f.Add(math.NaN(), 1e300)
	f.Fuzz(func(t *testing.T, a, b float64) {
		vals := []float64{
			a, b, -a, -b, a + b, a - b, a * b, a / 2, b * 0.3,
			math.Abs(a), math.Abs(b) + 1e-9,
		}
		// Stdlib equivalence of the exp/log kernels on the fuzzed values.
		dst := make([]float64, len(vals))
		ExpSlice(dst, vals)
		for i, x := range vals {
			want := math.Exp(x)
			if !expMatchesStdlib(dst[i], want) {
				t.Fatalf("ExpSlice(%v) = %v, math.Exp = %v", x, dst[i], want)
			}
		}
		LogSlice(dst, vals)
		for i, x := range vals {
			want := math.Log(x)
			if !bitsEqual(dst[i], want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Fatalf("LogSlice(%v) = %v, math.Log = %v", x, dst[i], want)
			}
		}
		sets := altImplSets()
		if len(sets) == 0 {
			return
		}
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 11, 19, 32, 33} {
			in := deriveInputs(vals, n)
			pa := runKernels(&portableFuncs, in)
			for _, alt := range sets {
				pb := runKernels(alt, in)
				for name, av := range pa {
					bv := pb[name]
					for i := range av {
						if !bitsEqual(av[i], bv[i]) && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
							t.Fatalf("kernel %s (n=%d, %s) diverges at [%d]: %v vs %v", name, n, alt.name, i, av[i], bv[i])
						}
					}
				}
			}
		}
	})
}

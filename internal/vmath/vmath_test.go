package vmath

import (
	"math"
	"testing"
)

// edgeInputs are the values the kernels must agree on bit for bit with
// their references: zeros of both signs, infinities, NaN, denormals,
// range boundaries of the exp/log fast paths, and ordinary magnitudes.
var edgeInputs = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5, 2, -2,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308,  // smallest normal
	2.2250738585072009e-308,  // largest subnormal
	-2.2250738585072014e-308, // negative smallest normal
	1e-300, 1e300, 1e-10, 1e10,
	708.99, 709.5, 709.9, 710, 745.2, // around exp overflow / fast bound
	-708.99, -709.5, -744.9, -745.2, -746, // around exp underflow / fast bound
	1.0 / (1 << 28), -1.0 / (1 << 28), // tiny exp arguments
	1.0/(1<<28) - 1e-25, 1.0 / (1 << 29),
	math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), // log mantissa split
	1 - 1e-16, 1 + 1e-16, 0.9999999999999999,
	math.Pi, -math.Pi, 0.3333333333333333, 42.5, -42.5,
	6.25, 100, 1e-6, 0.1, 0.9, 1.5, 3,
}

// bitsEqual reports whether a and b are the same float64 bit pattern.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// ulpDiff returns the distance between a and b in units of last place,
// treating the float64s as ordered integers. Returns 0 for identical
// bits or two NaNs, and a large value across NaN/non-NaN pairs.
func ulpDiff(a, b float64) uint64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	// Map to a monotone integer scale (sign-magnitude → offset binary).
	if ab>>63 != 0 {
		ab = ^ab
	} else {
		ab |= 1 << 63
	}
	if bb>>63 != 0 {
		bb = ^bb
	} else {
		bb |= 1 << 63
	}
	if ab > bb {
		return ab - bb
	}
	return bb - ab
}

// expMatchesStdlib reports whether got is an acceptable ExpSlice result
// for math.Exp(x) = want: bit-identical where the stdlib uses the FMA
// algorithm expCore replicates, within 2 ulp elsewhere.
func expMatchesStdlib(got, want float64) bool {
	if expExactStdlib {
		return bitsEqual(got, want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	return ulpDiff(got, want) <= 2
}

// sweep returns a deterministic pseudo-random sweep of n values spread
// over the given magnitude range, positives and negatives alternating.
func sweep(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / (1 << 53)
		v := lo + u*(hi-lo)
		if i%2 == 1 {
			v = -v
		}
		out[i] = v
	}
	return out
}

func TestExpSliceMatchesStdlib(t *testing.T) {
	xs := append(append([]float64{}, edgeInputs...), sweep(4096, 0, 750)...)
	dst := make([]float64, len(xs))
	ExpSlice(dst, xs)
	for i, x := range xs {
		want := math.Exp(x)
		if !expMatchesStdlib(dst[i], want) {
			t.Fatalf("ExpSlice(%v) [%s] = %v (%#x), math.Exp = %v (%#x)",
				x, Impl(), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

func TestLogSliceMatchesStdlib(t *testing.T) {
	xs := append(append([]float64{}, edgeInputs...), sweep(4096, 1e-320, 1e300)...)
	dst := make([]float64, len(xs))
	LogSlice(dst, xs)
	for i, x := range xs {
		want := math.Log(x)
		if !bitsEqual(dst[i], want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("LogSlice(%v) [%s] = %v (%#x), math.Log = %v (%#x)",
				x, Impl(), dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

func TestNormFactorMatchesScalarExpression(t *testing.T) {
	// The Box-Muller factor must reproduce the exact scalar expression of
	// rng's rejection loop, including for out-of-domain q.
	qs := append(append([]float64{}, edgeInputs...), sweep(4096, 1e-12, 1)...)
	dst := make([]float64, len(qs))
	NormFactorSlice(dst, qs)
	for i, q := range qs {
		want := math.Sqrt(-2 * math.Log(q) / q)
		if !bitsEqual(dst[i], want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("NormFactorSlice(%v) [%s] = %v, want %v", q, Impl(), dst[i], want)
		}
	}
}

func TestNormFactorFastAccuracy(t *testing.T) {
	// The fast factor carries a documented relative-error bound of
	// ~3e-12 against the exact scalar expression inside its domain;
	// out-of-domain q (non-normal, ≥ the q→1 guard) must fall back to
	// the exact element bit-for-bit.
	qs := append(append([]float64{}, edgeInputs...), sweep(8192, 1e-14, 1)...)
	qs = append(qs,
		normFactorFastHi, math.Nextafter(normFactorFastHi, 0), math.Nextafter(normFactorFastHi, 2),
		math.Nextafter(1, 0), minNormal, math.Nextafter(minNormal, 0), 5e-324,
	)
	dst := make([]float64, len(qs))
	NormFactorFastSlice(dst, qs)
	for i, q := range qs {
		want := math.Sqrt(-2 * math.Log(q) / q)
		if math.IsNaN(want) {
			if !math.IsNaN(dst[i]) {
				t.Fatalf("NormFactorFastSlice(%v) [%s] = %v, want NaN", q, Impl(), dst[i])
			}
			continue
		}
		if !inNormFactorFast(q) {
			if !bitsEqual(dst[i], want) {
				t.Fatalf("NormFactorFastSlice(%v) [%s] = %v, want exact fallback %v", q, Impl(), dst[i], want)
			}
			continue
		}
		if d := math.Abs(dst[i] - want); d > 1e-11*want {
			t.Fatalf("NormFactorFastSlice(%v) [%s] = %v, want %v (relative error %g)",
				q, Impl(), dst[i], want, d/want)
		}
	}
}

func TestExpSliceInPlace(t *testing.T) {
	xs := sweep(257, 0, 40)
	sep := make([]float64, len(xs))
	ExpSlice(sep, xs)
	inp := append([]float64{}, xs...)
	ExpSlice(inp, inp)
	for i := range xs {
		if !bitsEqual(sep[i], inp[i]) {
			t.Fatalf("in-place ExpSlice diverges at %d: %v vs %v", i, inp[i], sep[i])
		}
	}
}

func TestRoundQuantSlice(t *testing.T) {
	in := []float64{-54.2, -54.8, -95.4, -19.2, 3.7, -0.5, 0.5, -54.25}
	for _, step := range []float64{1, 0.5, 0.25, 0} {
		invStep := 0.0
		if step > 0 {
			invStep = 1 / step
		}
		got := append([]float64{}, in...)
		RoundQuantSlice(got, step, invStep, -95, -20)
		for i, v := range in {
			want := v
			switch {
			case step == 1:
				want = math.Round(want)
			case step > 0:
				want = math.Round(want*invStep) * step
			}
			if want < -95 {
				want = -95
			}
			if want > -20 {
				want = -20
			}
			if !bitsEqual(got[i], want) {
				t.Fatalf("RoundQuantSlice step %v: in %v got %v want %v", step, v, got[i], want)
			}
		}
	}
}

func TestAxpyClamp(t *testing.T) {
	dst := []float64{1, 2, 3, 4, 5}
	x := []float64{10, -10, 0, 100, -100}
	AxpyClamp(dst, x, 0.5, -20, 20)
	want := []float64{6, -3, 3, 20, -20}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AxpyClamp[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDistToSegDegenerate(t *testing.T) {
	// l2 == 0 must fall back to point distance (segment is a point).
	dst := make([]float64, 1)
	DistToSegSlice(dst, []float64{1}, []float64{2}, []float64{0}, []float64{0}, []float64{0}, 4, 6)
	if want := 5.0; dst[0] != want {
		t.Fatalf("degenerate DistToSeg = %v, want %v", dst[0], want)
	}
}

func TestExcessPathOnSegment(t *testing.T) {
	// A point on the segment has (numerically near) zero excess path.
	dst := make([]float64, 1)
	ExcessPathSlice(dst, []float64{0}, []float64{0}, []float64{4}, []float64{0}, []float64{4}, 1, 0)
	if math.Abs(dst[0]) > 1e-12 {
		t.Fatalf("on-segment excess path = %v, want ≈0", dst[0])
	}
}

func TestImplReportsKnownName(t *testing.T) {
	switch Impl() {
	case "portable", "avx2-amd64":
	default:
		t.Fatalf("Impl() = %q, not a known implementation", Impl())
	}
	switch ActivePath() {
	case "portable", "avx2":
	default:
		t.Fatalf("ActivePath() = %q, not a known path", ActivePath())
	}
}

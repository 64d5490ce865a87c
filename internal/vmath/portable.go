// Portable kernel implementations: per-element loops over the shared
// scalar helpers. These are the reference semantics — the AVX2 amd64
// set must match them bit for bit, which the package tests and fuzz
// target enforce.

package vmath

import "math"

// Constants of the stdlib exp/log algorithms, plus the bounds of the
// inline fast paths. The exp set replicates the amd64 stdlib's
// SLEEF-derived implementation (Shibata's method: argument reduction by
// ln2 split into two parts, a Taylor series on r/16, four squarings of
// the expm1 chain); the log set is the fdlibm algorithm shared by the
// pure-Go and amd64 stdlib implementations.
const (
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
	log2e = 1.4426950408889634073599246810018920

	ln2u = 0.69314718055966295651160180568695068359375
	ln2l = 0.28235290563031577122588448175013436025525412068e-12

	expC3 = 1.6666666666666666667e-1
	expC4 = 4.1666666666666666667e-2
	expC5 = 8.3333333333333333333e-3
	expC6 = 1.3888888888888888889e-3
	expC7 = 1.9841269841269841270e-4
	expC8 = 2.4801587301587301587e-5

	// roundMagic rounds a small-magnitude float to the nearest integer
	// (ties to even) by forcing its unit digit to the rounding position,
	// matching the CVTSD2SL conversion the stdlib assembly uses.
	roundMagic = 1.5 * (1 << 52)

	logL1 = 6.666666666666735130e-01
	logL2 = 3.999999999940941908e-01
	logL3 = 2.857142874366239149e-01
	logL4 = 2.222219843214978396e-01
	logL5 = 1.818357216161805012e-01
	logL6 = 1.531383769920937332e-01
	logL7 = 1.479819860511658591e-01

	// expFastLo/expFastHi bound the inline exp fast path: inside
	// (expFastLo, expFastHi) the 2^k scale factor is a normal float, the
	// result neither overflows nor needs the stdlib's denormal scaling,
	// and no special case (NaN, ±Inf) applies.
	expFastLo = -708.0
	expFastHi = 709.0

	// minNormal bounds the inline log fast path from below: subnormals
	// (and zero, negatives, NaN) defer to math.Log.
	minNormal = 2.2250738585072014e-308

	sqrt2Half = math.Sqrt2 / 2
)

// inExpFast reports whether x is handled by the branch-light lane body
// of the exp kernels (NaN fails both comparisons).
func inExpFast(x float64) bool {
	return x > expFastLo && x < expFastHi
}

// inLogFast reports whether x is handled by the inline log lane body:
// positive, normal, finite (NaN fails the first comparison).
func inLogFast(x float64) bool {
	return x >= minNormal && x <= math.MaxFloat64
}

// exp1 returns exp(x), bit-identical to the amd64 stdlib math.Exp on
// FMA hardware: the stdlib assembly's FMA variant evaluated via
// math.FMA (exact fused semantics on every platform) for the common
// range, the stdlib itself for special cases and the over/underflow
// tails.
func exp1(x float64) float64 {
	if !inExpFast(x) {
		return math.Exp(x) // NaN, ±Inf, overflow, deep-underflow tails
	}
	return expCore(x)
}

// expCore is the in-range body. Requires inExpFast(x).
func expCore(x float64) float64 {
	// k = round-to-nearest-even(x·log2e); kf = float64(k), exactly.
	kf := (x*log2e + roundMagic) - roundMagic
	// r = x − k·ln2, the ln2 split applied with fused multiply-adds.
	r := math.FMA(-ln2u, kf, x)
	r = math.FMA(-ln2l, kf, r)
	r *= 0.0625
	p := expC8
	p = math.FMA(p, r, expC7)
	p = math.FMA(p, r, expC6)
	p = math.FMA(p, r, expC5)
	p = math.FMA(p, r, expC4)
	p = math.FMA(p, r, expC3)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	// q = expm1(r/16)·…, squared back up four times via
	// e^2r − 1 = (e^r − 1)(e^r + 1).
	q := r * p
	q = q * (q + 2)
	q = q * (q + 2)
	q = q * (q + 2)
	fr := math.FMA(q, q+2, 1)
	// k ∈ [-1021, 1023] here, so 2^k is a normal float and the single
	// multiply rounds the exact product — identical to the stdlib scale.
	return fr * math.Float64frombits(uint64(1023+int(kf))<<52)
}

// log1 returns math.Log(x) bit for bit: the stdlib algorithm evaluated
// inline for positive normal finite x, the stdlib itself otherwise.
func log1(x float64) float64 {
	if !inLogFast(x) {
		return math.Log(x) // ≤ 0, subnormal, NaN, +Inf
	}
	return logCore(x)
}

// logCore is the in-range body: frexp by bit twiddling, then the fdlibm
// atanh-series evaluation. Requires inLogFast(x).
func logCore(x float64) float64 {
	bits := math.Float64bits(x)
	ki := int(bits>>52) - 1022
	f1 := math.Float64frombits(bits&^(uint64(0x7ff)<<52) | uint64(1022)<<52)
	if f1 < sqrt2Half {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (logL1 + s4*(logL3+s4*(logL5+s4*logL7)))
	t2 := s4 * (logL2 + s4*(logL4+s4*logL6))
	R := t1 + t2
	hfsq := 0.5 * f * f
	return k*ln2Hi - ((hfsq - (s*(hfsq+R) + k*ln2Lo)) - f)
}

// normFactor1 is the Box-Muller radius factor, with the exact operation
// order of rng's scalar path: sqrt((-2·log(q))/q).
func normFactor1(q float64) float64 {
	return math.Sqrt(-2 * log1(q) / q)
}

// The fast normFactor path replaces the fdlibm log with a table-driven
// one: split q = m·2^e with m ∈ [1,2), look up a reciprocal c ≈ 1/m at
// 7 mantissa bits, reduce r = m·c − 1 (|r| ≲ 2⁻⁸), and evaluate
// log q = e·ln2 + log(1/c) + log1p(r) with a degree-7 Taylor Horner.
// Absolute error is ≲ 2e-16, so the factor is accurate to ~1 ulp except
// where log q itself cancels toward 0 — which the normFactorFastHi
// guard routes to the exact path. Everything is plain float64 mul/add,
// so results are identical on every platform.
const (
	// normFactorFastHi bounds the fast path away from q → 1, where
	// log q → 0 and the e·ln2 + table sum cancels: below it
	// |log q| ≥ 2⁻¹⁴, keeping the relative error under ~3e-12.
	normFactorFastHi = 1 - 1.0/(1<<14)

	log1pC2 = -1.0 / 2
	log1pC3 = 1.0 / 3
	log1pC4 = -1.0 / 4
	log1pC5 = 1.0 / 5
	log1pC6 = -1.0 / 6
	log1pC7 = 1.0 / 7
)

// logRcpTab[i] ≈ 1/m for mantissa bucket i; logLnTab[i] = −log(logRcpTab[i]).
var logRcpTab, logLnTab [128]float64

func init() {
	for i := range logRcpTab {
		c := 1 / (1 + (float64(i)+0.5)/128)
		logRcpTab[i] = c
		logLnTab[i] = -log1(c)
	}
}

// inNormFactorFast reports whether q takes the table-log lane body:
// positive, normal, and bounded away from the q → 1 cancellation.
func inNormFactorFast(q float64) bool {
	return q >= minNormal && q < normFactorFastHi
}

// normFactorFastCore is the in-range body. Requires inNormFactorFast(q).
func normFactorFastCore(q float64) float64 {
	bits := math.Float64bits(q)
	e := float64(int(bits>>52) - 1023)
	i := (bits >> 45) & 127
	m := math.Float64frombits(bits&(1<<52-1) | uint64(1023)<<52)
	r := m*logRcpTab[i] - 1
	p := log1pC2 + r*(log1pC3+r*(log1pC4+r*(log1pC5+r*(log1pC6+r*log1pC7))))
	lg := e*math.Ln2 + logLnTab[i] + r*(1+r*p)
	return math.Sqrt(-2 * lg / q)
}

// normFactorFast1 is one element of NormFactorFastSlice.
func normFactorFast1(q float64) float64 {
	if !inNormFactorFast(q) {
		return normFactor1(q) // non-normal, out of domain, or q → 1
	}
	return normFactorFastCore(q)
}

// normFactorFast4 evaluates four in-range elements with the lanes
// interleaved in one body: normFactorFastCore is too large for the
// inliner, and four sequential calls would serialise each lane's
// ~90-cycle load→poly→div→sqrt dependency chain. Requires
// inNormFactorFast for all four inputs. Each lane performs exactly
// normFactorFastCore's operations in order, so results are
// bit-identical to the scalar element.
func normFactorFast4(q0, q1, q2, q3 float64) (f0, f1, f2, f3 float64) {
	b0, b1, b2, b3 := math.Float64bits(q0), math.Float64bits(q1), math.Float64bits(q2), math.Float64bits(q3)
	e0 := float64(int(b0>>52) - 1023)
	e1 := float64(int(b1>>52) - 1023)
	e2 := float64(int(b2>>52) - 1023)
	e3 := float64(int(b3>>52) - 1023)
	const fracMask = 1<<52 - 1
	const oneBits = uint64(1023) << 52
	m0 := math.Float64frombits(b0&fracMask | oneBits)
	m1 := math.Float64frombits(b1&fracMask | oneBits)
	m2 := math.Float64frombits(b2&fracMask | oneBits)
	m3 := math.Float64frombits(b3&fracMask | oneBits)
	i0, i1, i2, i3 := (b0>>45)&127, (b1>>45)&127, (b2>>45)&127, (b3>>45)&127
	r0 := m0*logRcpTab[i0] - 1
	r1 := m1*logRcpTab[i1] - 1
	r2 := m2*logRcpTab[i2] - 1
	r3 := m3*logRcpTab[i3] - 1
	p0 := log1pC2 + r0*(log1pC3+r0*(log1pC4+r0*(log1pC5+r0*(log1pC6+r0*log1pC7))))
	p1 := log1pC2 + r1*(log1pC3+r1*(log1pC4+r1*(log1pC5+r1*(log1pC6+r1*log1pC7))))
	p2 := log1pC2 + r2*(log1pC3+r2*(log1pC4+r2*(log1pC5+r2*(log1pC6+r2*log1pC7))))
	p3 := log1pC2 + r3*(log1pC3+r3*(log1pC4+r3*(log1pC5+r3*(log1pC6+r3*log1pC7))))
	l0 := e0*math.Ln2 + logLnTab[i0] + r0*(1+r0*p0)
	l1 := e1*math.Ln2 + logLnTab[i1] + r1*(1+r1*p1)
	l2 := e2*math.Ln2 + logLnTab[i2] + r2*(1+r2*p2)
	l3 := e3*math.Ln2 + logLnTab[i3] + r3*(1+r3*p3)
	f0 = math.Sqrt(-2 * l0 / q0)
	f1 = math.Sqrt(-2 * l1 / q1)
	f2 = math.Sqrt(-2 * l2 / q2)
	f3 = math.Sqrt(-2 * l3 / q3)
	return
}

// uniformSym1 maps the top 53 bits of a raw draw onto (-1, 1).
func uniformSym1(r uint64) float64 {
	return 2*(float64(r>>11)/(1<<53)) - 1
}

// rotl64 is the xoshiro bit rotation (duplicated from rng to keep the
// dependency arrow pointing rng → vmath).
func rotl64(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// starUniform1 is one element of StarUniformSlice: the xoshiro256**
// output scramble of a raw s1 word, mapped onto (-1, 1).
func starUniform1(s1 uint64) float64 {
	return uniformSym1(rotl64(s1*5, 7) * 9)
}

// roundQuantLoop is the shared RoundQuantSlice body: it dispatches on
// step once, outside the loop, rather than re-branching per element.
func roundQuantLoop(dst []float64, step, invStep, lo, hi float64) {
	switch {
	case step == 1:
		for i, v := range dst {
			dst[i] = clamp1(math.Round(v), lo, hi)
		}
	case step > 0:
		for i, v := range dst {
			dst[i] = clamp1(math.Round(v*invStep)*step, lo, hi)
		}
	default:
		for i, v := range dst {
			dst[i] = clamp1(v, lo, hi)
		}
	}
}

// clamp1 limits v to [lo, hi].
func clamp1(v, lo, hi float64) float64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// distToSeg1 is one element of DistToSegSlice.
func distToSeg1(ax, ay, dx, dy, l2, px, py float64) float64 {
	if l2 == 0 {
		ex, ey := ax-px, ay-py
		return math.Sqrt(ex*ex + ey*ey)
	}
	t := ((px-ax)*dx + (py-ay)*dy) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	ex, ey := ax+dx*t-px, ay+dy*t-py
	return math.Sqrt(ex*ex + ey*ey)
}

var portableFuncs = funcs{
	name: "portable",
	path: "portable",
	expSlice: func(dst, x []float64) {
		x = x[:len(dst)]
		for i := range dst {
			dst[i] = exp1(x[i])
		}
	},
	logSlice: func(dst, x []float64) {
		x = x[:len(dst)]
		for i := range dst {
			dst[i] = log1(x[i])
		}
	},
	hypotSlice: func(dst, x, y []float64) {
		x, y = x[:len(dst)], y[:len(dst)]
		for i := range dst {
			a, b := x[i], y[i]
			dst[i] = math.Sqrt(a*a + b*b)
		}
	},
	normFactor: func(dst, q []float64) {
		q = q[:len(dst)]
		for i := range dst {
			dst[i] = normFactor1(q[i])
		}
	},
	normFactorFast: func(dst, q []float64) {
		q = q[:len(dst)]
		for i := range dst {
			dst[i] = normFactorFast1(q[i])
		}
	},
	scaleSlice: func(dst []float64, a float64) {
		for i := range dst {
			dst[i] *= a
		}
	},
	axpySlice: func(dst, x []float64, a float64) {
		x = x[:len(dst)]
		for i := range dst {
			dst[i] += a * x[i]
		}
	},
	axpyClamp: func(dst, x []float64, a, lo, hi float64) {
		x = x[:len(dst)]
		for i := range dst {
			v := dst[i] + a*x[i]
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			dst[i] = v
		}
	},
	sqrtSlice: func(dst []float64) {
		for i := range dst {
			dst[i] = math.Sqrt(dst[i])
		}
	},
	clampMax: func(dst []float64, hi float64) {
		for i := range dst {
			if dst[i] > hi {
				dst[i] = hi
			}
		}
	},
	starUniform: func(dst []float64, s1 []uint64) {
		s1 = s1[:len(dst)]
		for i := range dst {
			dst[i] = starUniform1(s1[i])
		}
	},
	pairNormSq: func(q, d []float64) {
		d = d[:2*len(q)]
		for j := range q {
			u, v := d[2*j], d[2*j+1]
			q[j] = u*u + v*v
		}
	},
	boxMullerScale: func(out, us, vs, fs []float64) {
		out = out[:2*len(fs)]
		us, vs = us[:len(fs)], vs[:len(fs)]
		for j, f := range fs {
			out[2*j] = us[j] * f
			out[2*j+1] = vs[j] * f
		}
	},
	compactAccept: func(us, vs, qs, ds, ps []float64) int {
		filled := 0
		for j, q := range ps {
			if q == 0 || q >= 1 {
				continue
			}
			us[filled], vs[filled], qs[filled] = ds[2*j], ds[2*j+1], q
			filled++
		}
		return filled
	},
	arNoise: func(out, ar, base, z []float64, att, arCoef, innov float64) {
		n := len(out)
		ar, base, z = ar[:n], base[:n], z[:n]
		for k := range out {
			a := arCoef*ar[k] + innov*z[k]
			ar[k] = a
			out[k] = base[k] - att + a
		}
	},
	arMotionNoise: func(out, ar, base, z []float64, att, arCoef, innov, sd float64) {
		n := len(out)
		ar, base, z = ar[:n], base[:n], z[:2*n]
		for k := range out {
			a := arCoef*ar[k] + innov*z[2*k]
			ar[k] = a
			out[k] = base[k] - att + a + sd*z[2*k+1]
		}
	},
	roundQuant: roundQuantLoop,
	excessPath: func(dst, ax, ay, bx, by, segLen []float64, px, py float64) {
		n := len(dst)
		ax, ay, bx, by, segLen = ax[:n], ay[:n], bx[:n], by[:n], segLen[:n]
		for i := range dst {
			ux, uy := ax[i]-px, ay[i]-py
			vx, vy := px-bx[i], py-by[i]
			dst[i] = math.Sqrt(ux*ux+uy*uy) + math.Sqrt(vx*vx+vy*vy) - segLen[i]
		}
	},
	distToSeg: func(dst, ax, ay, dx, dy, l2 []float64, px, py float64) {
		n := len(dst)
		ax, ay, dx, dy, l2 = ax[:n], ay[:n], dx[:n], dy[:n], l2[:n]
		for i := range dst {
			dst[i] = distToSeg1(ax[i], ay[i], dx[i], dy[i], l2[i], px, py)
		}
	},
	accumSqScaled: func(dst, x []float64, c float64) {
		x = x[:len(dst)]
		for i := range dst {
			sd := c * x[i]
			dst[i] += sd * sd
		}
	},
}

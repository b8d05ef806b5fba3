package xrand

import "math"

// Fast exact geometric skips.
//
// GeometricLog's defining formula is floor(Log1p(-u)/λ) with λ = log(1-p)
// < 0 and u = Float64(). The G(n,p) generator draws one such skip per edge,
// and math.Log1p dominates its cost. fastLog below computes log(1-u) from a
// 128-entry table and a degree-7 polynomial at a fraction of that cost; its
// quotient x_f = fastLog(1-u)/λ is accepted only when it sits so far from
// every integer that the defining formula must floor to the same value.
// Otherwise GeometricLog evaluates the defining formula itself. The result
// is therefore bit-identical to the defining formula for every u and λ;
// the table only decides how often the slow formula runs.
//
// Error bound. Let y = 1-u (exact: u lies on the 2⁻⁵³ grid and u < 1), let
// L = ln y ≤ 0 be the true logarithm and t = L/λ ≥ 0 the true skip.
//
//  1. fastLog writes y = 2^e·m with m ∈ [1/2, 1), e ≤ 0, and picks a table
//     point c in m's cell of width 2⁻⁸ (the cell centre, except c = 1 for
//     the top cell [1-2⁻⁸, 1)). Then L = e·ln2 + ln c + log1p(z) with
//     z = (m-c)/c, |z| ≤ 2⁻⁸. m-c is exact (Sterbenz), so r = (m-c)·(1/c)
//     carries relative error ≤ 2⁻⁵². The Taylor polynomial of degree 7
//     truncates log1p at relative error ≤ 2⁻⁵⁹. Rounding adds the rest:
//     - top cell, e = 0: c = 1, ln c = 0 and r = m-1 exactly, so
//       |F-L| ≤ 1.2·2⁻⁵³|L|;
//     - other cells with e = 0: |L| ≥ 2⁻⁸ while |ln c| ≤ 2.01|L|, so the
//       ≤ 1-ulp error of the tabulated ln c stays relative:
//       |F-L| ≤ 9.1·2⁻⁵³|L|;
//     - e < 0: |L| ≥ ln 2, e·ln2Hi is exact and every summand is ≤ 0 up
//       to the ≤ 2⁻⁸ polynomial term, so |F-L| ≤ 4.1·2⁻⁵³|L|.
//     Hence |F-L| ≤ εa + εr|L| with εr = 2⁻⁴⁹·⁸ and, for this table,
//     εa = 0. The argument needs c = 1 in the top cell: a centred top
//     cell would cancel e·ln2 against ln c for y near 1 and leave an
//     absolute error near 2⁻⁵³ no matter how small |L| is.
//  2. The defining formula: fdlibm's log1p (math.Log1p) is within 1 ulp;
//     allowing 2 ulp and one rounding for the division gives
//     |x_e - t| ≤ (2⁻⁵¹ + 2⁻⁵³)t < 2⁻⁵⁰t.
//  3. The fast quotient: |x_f - t| ≤ (εa + εr|L|)/|λ| + 2⁻⁵³x_f, and
//     |L|/|λ| = t ≤ x_f(1 + 2⁻⁴⁸) + εa/|λ|.
//
// Together |x_f - x_e| ≤ 2εa/|λ| + 2⁻⁴⁸x_f. GeometricLog accepts x_f when
// its distance to the nearest integer exceeds
//
//	δ = 2⁻⁵²/|λ| + 2⁻⁴⁶x_f,
//
// tested as frac·|λ| > 2⁻⁵² + 2⁻⁴⁶|F|: the same inequality times |λ|,
// which saves a division and moves δ by a relative 2⁻⁵² at most. δ keeps a
// 4× margin on the relative term, and its absolute term tolerates εa up
// to 2⁻⁵³ — about one rounding of ln c or e·ln2 — so the test stays sound
// for y near 1 even if the top cell lost its c = 1 anchor. Both terms grow
// like 1/|λ| (x_f = F/λ): a fixed δ would be unsafe for tiny p, where one
// grid step of u moves x_f by about 2⁻⁵³/|λ|. The price is a fallback rate
// of about 2δ — below 10⁻⁹ at p = 2.5·10⁻⁴, a few percent at p = 10⁻¹² —
// and TestFastGeometricExact and FuzzGeometricLog compare the result with
// the defining formula directly.

const (
	logTableBits = 7
	logTableSize = 1 << logTableBits

	// ln2Hi + ln2Lo = ln 2; ln2Hi has 21 trailing zero bits, so e·ln2Hi is
	// exact for every exponent e of a float64 (fdlibm's split).
	ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76

	// fastSkipMax caps accepted quotients well below 2⁵² so that x_f - floor
	// is exact and int(floor) cannot overflow; larger skips take the
	// defining formula (their δ exceeds 1/2 long before this anyway).
	fastSkipMax = 1 << 50
)

// logTable holds, for cell i of m ∈ [1/2, 1), the point c, the rounded
// reciprocal 1/c and ln c. Computed at init from exact cell centres.
var logTable [logTableSize]struct{ c, invc, logc float64 }

func init() {
	for i := range logTable {
		c := 0.5 + (float64(i)+0.5)/(2*logTableSize) // centre of [0.5(1+i/N), 0.5(1+(i+1)/N))
		if i == logTableSize-1 {
			c = 1
		}
		logTable[i].c = c
		logTable[i].invc = 1 / c
		logTable[i].logc = math.Log(c)
	}
}

// fastLog returns ln y for 0 < y < 1 with |error| ≤ 2⁻⁴⁹·⁸|ln y| (see the
// bound above). Subnormal y are not handled; GeometricLog never passes y
// below 2⁻⁵³.
func fastLog(y float64) float64 {
	b := math.Float64bits(y)
	e := float64(int64(b>>52) - 1022) // y = 2^e · m, m ∈ [1/2, 1)
	t := &logTable[(b>>(52-logTableBits))&(logTableSize-1)]
	m := math.Float64frombits(b&(1<<52-1) | 1022<<52)
	r := (m - t.c) * t.invc
	// log1p(r) = r - r²/2 + r³/3 - ... truncated after r⁷; |r| ≤ 2⁻⁸.
	// Estrin's split keeps the dependency chain short.
	r2 := r * r
	q := (-1.0/2 + r*(1.0/3)) + r2*((-1.0/4+r*(1.0/5))+r2*(-1.0/6+r*(1.0/7)))
	return (e*ln2Hi + t.logc) + (e*ln2Lo + (r + r2*q))
}

// fastSkip returns floor(Log1p(-u)/log1mp) and true when the table-driven
// quotient is provably far enough from an integer; otherwise it returns
// false and the caller evaluates the defining formula. u must lie on the
// 2⁻⁵³ grid in [0, 1).
func fastSkip(u, log1mp float64) (int, bool) {
	if u == 0 {
		return 0, false
	}
	l := fastLog(1 - u)
	x := l / log1mp
	// Both comparisons fail for NaN, which the defining formula handles.
	if !(x >= 0 && x < fastSkipMax) {
		return 0, false
	}
	f := float64(int64(x))
	frac := x - f
	// dist(x, ℤ) > δ = 2⁻⁵²/|λ| + 2⁻⁴⁶x, scaled by |λ| to save a division
	// (x·|λ| = |l| up to one rounding, far inside the margin).
	a := -log1mp
	delta := 0x1p-52 - 0x1p-46*l
	if frac*a > delta && (1-frac)*a > delta {
		return int(f), true
	}
	return 0, false
}

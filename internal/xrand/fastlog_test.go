package xrand

import (
	"math"
	"testing"
)

// exactSkip is GeometricLog's defining formula.
func exactSkip(u, log1mp float64) int {
	return int(math.Floor(math.Log1p(-u) / log1mp))
}

// fastGridPs spans the skip lengths the repository draws (p = 2.5e-4 is
// the G(1e5, 25/n) benchmark graph) and the extremes of (0, 1).
var fastGridPs = []float64{1e-12, 1e-9, 1e-7, 2.5e-4, 0.01, 0.3, 0.5, 0.9, 0.999}

// gridUniform returns the 2⁻⁵³-grid point nearest v, clamped to [0, 1).
func gridUniform(v float64) float64 {
	k := math.Round(v * (1 << 53))
	return math.Max(0, math.Min(k, 1<<53-1)) / (1 << 53)
}

// boundaryUniforms returns, for each skip k, the grid points within ±64
// steps of u* = -expm1(k·log1mp), where the defining formula steps from
// k-1 to k: small k and k spread over the whole representable range.
func boundaryUniforms(log1mp float64) []float64 {
	kMax := math.Floor(-53 * math.Ln2 / log1mp) // 1-u >= 2⁻⁵³
	var ks []float64
	for k := 1.0; k <= 64 && k <= kMax; k++ {
		ks = append(ks, k)
	}
	for _, f := range []float64{1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 1} {
		if k := math.Floor(f * kMax); k > 64 {
			ks = append(ks, k)
		}
	}
	var us []float64
	for _, k := range ks {
		c := gridUniform(-math.Expm1(k * log1mp))
		for j := -64; j <= 64; j++ {
			if u := c + float64(j)/(1<<53); u >= 0 && u < 1 {
				us = append(us, u)
			}
		}
	}
	return us
}

// TestFastGeometricExact checks the fast skip against the defining
// formula on random uniforms (10⁷ per p) and on the grid points next to
// every skip boundary, where the fallback must take over. Any accepted
// fast result that differs from the formula is a mismatch.
func TestFastGeometricExact(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 100_000
	}
	totalBoundaryFallbacks := 0
	for i, p := range fastGridPs {
		log1mp := math.Log1p(-p)
		check := func(u float64) (fallback bool) {
			k, ok := fastSkip(u, log1mp)
			if ok && k != exactSkip(u, log1mp) {
				t.Fatalf("p=%g u=%v (bits %#x): fast skip %d, defining formula %d",
					p, u, math.Float64bits(u), k, exactSkip(u, log1mp))
			}
			return !ok
		}
		r := New(uint64(1000 + i))
		randomFallbacks := 0
		for j := 0; j < draws; j++ {
			if check(r.Float64()) {
				randomFallbacks++
			}
		}
		us := boundaryUniforms(log1mp)
		boundaryFallbacks := 0
		for _, u := range us {
			if check(u) {
				boundaryFallbacks++
			}
		}
		totalBoundaryFallbacks += boundaryFallbacks
		t.Logf("p=%-7g random fallback rate %.3g (%d/%d), boundary fallbacks %d/%d",
			p, float64(randomFallbacks)/float64(draws), randomFallbacks, draws, boundaryFallbacks, len(us))
	}
	if totalBoundaryFallbacks == 0 {
		t.Error("no boundary case reached the defining-formula fallback")
	}
}

// TestFastSkipDegenerate covers the inputs the fast path must refuse.
func TestFastSkipDegenerate(t *testing.T) {
	for _, tc := range []struct {
		u, log1mp float64
	}{
		{0, math.Log1p(-0.5)},             // u = 0: skip 0 exactly
		{0.5, math.Inf(-1)},               // p = 1
		{0.5, math.NaN()},                 // malformed p
		{0.5, 0},                          // p = 0
		{0.5, 0.3},                        // positive log1mp
		{1 - 0x1p-53, -1e-300},            // quotient beyond fastSkipMax
		{0x1p-53, math.Log1p(-0x1p-40)},   // smallest nonzero u
		{1 - 0x1p-53, math.Log1p(-1e-12)}, // largest u, huge skip
	} {
		if k, ok := fastSkip(tc.u, tc.log1mp); ok && k != exactSkip(tc.u, tc.log1mp) {
			t.Errorf("u=%v log1mp=%v: fast %d, exact %d", tc.u, tc.log1mp, k, exactSkip(tc.u, tc.log1mp))
		}
	}
	if _, ok := fastSkip(0, -1); ok {
		t.Error("u = 0 took the fast path")
	}
}

// TestFastLogAccuracy checks the stated relative error bound of fastLog,
// |fastLog(y) - ln y| <= 2^-49.8·|ln y|, against math.Log (itself within
// 1 ulp) with one extra ulp of slack.
func TestFastLogAccuracy(t *testing.T) {
	r := New(5)
	worst := 0.0
	for i := 0; i < 1_000_000; i++ {
		u := r.Float64()
		if i%4 == 0 {
			u = r.Float64() * 0x1p-20 // dense near y = 1
		}
		if u == 0 {
			continue
		}
		y := 1 - u
		want := math.Log(y)
		rel := math.Abs(fastLog(y)-want) / math.Abs(want)
		worst = math.Max(worst, rel)
	}
	if worst > math.Exp2(-49.8)+0x1p-52 {
		t.Errorf("worst relative error %g exceeds the bound %g", worst, math.Exp2(-49.8))
	}
	t.Logf("worst relative error %g (bound %g)", worst, math.Exp2(-49.8))
}

// FuzzGeometricLog asserts fast == exact for arbitrary uniforms and p.
// The seed corpus holds the grid points adjacent to skip boundaries.
func FuzzGeometricLog(f *testing.F) {
	for _, p := range fastGridPs {
		us := boundaryUniforms(math.Log1p(-p))
		for _, j := range []int{0, 63, 64, 65, len(us) / 2, len(us) - 1} {
			if j < len(us) {
				f.Add(uint64(us[j]*(1<<53))<<11, p)
			}
		}
	}
	f.Add(uint64(0), 0.5)
	f.Add(^uint64(0), 1e-300)
	f.Fuzz(func(t *testing.T, uBits uint64, p float64) {
		if !(p > 0 && p < 1) {
			return
		}
		u := float64(uBits>>11) * (1.0 / (1 << 53)) // exactly as Float64 builds it
		log1mp := math.Log1p(-p)
		if k, ok := fastSkip(u, log1mp); ok && k != exactSkip(u, log1mp) {
			t.Fatalf("p=%v u=%v: fast skip %d, defining formula %d", p, u, k, exactSkip(u, log1mp))
		}
	})
}

func BenchmarkGeometricLog(b *testing.B) {
	log1mp := math.Log1p(-2.5e-4)
	r := New(1)
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.GeometricLog(log1mp)
	}
	sinkInt = s
}

func BenchmarkGeometricLogExact(b *testing.B) {
	log1mp := math.Log1p(-2.5e-4)
	r := New(1)
	s := 0
	for i := 0; i < b.N; i++ {
		s += exactSkip(r.Float64(), log1mp)
	}
	sinkInt = s
}

var sinkInt int

package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical values", same)
	}
}

func TestZeroSeedNotAllZeroState(t *testing.T) {
	r := New(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("seed 0 produced all-zero xoshiro state")
	}
	// The stream should still look random.
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("seed 0 produces a degenerate stream")
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	c1again := parent.Derive(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Derive with the same id is not deterministic")
	}
	// c1 (advanced by one) vs c2 should differ.
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("derived streams with different ids coincide")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const trials = 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(19)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		sum := 0.0
		const trials = 50000
		for i := 0; i < trials; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / trials
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.1*want+0.05 {
			t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	r := New(23)
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestBinomialMoments(t *testing.T) {
	r := New(29)
	cases := []struct {
		n int
		p float64
	}{
		{100, 0.3}, {1000, 0.01}, {50, 0.9}, {10, 0.5},
	}
	for _, c := range cases {
		sum, sumSq := 0.0, 0.0
		const trials = 20000
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(c.n, c.p))
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		variance := sumSq/trials - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantMean) > 4*math.Sqrt(wantVar/trials)+0.01 {
			t.Errorf("Binomial(%d,%v) mean = %v, want ~%v", c.n, c.p, mean, wantMean)
		}
		if wantVar > 1 && math.Abs(variance-wantVar) > 0.15*wantVar {
			t.Errorf("Binomial(%d,%v) var = %v, want ~%v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(31)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestBinomialRangeProperty(t *testing.T) {
	r := New(37)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 500)
		p := float64(pRaw) / math.MaxUint16
		v := r.Binomial(n, p)
		return v >= 0 && v <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid at value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(43)
	const n = 5
	const trials = 50000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first element %d count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(47)
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 10}, {1000, 5}, {1000, 999}, {1 << 20, 10},
	} {
		s := r.Sample(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("Sample(%d,%d) returned %d values", tc.n, tc.k, len(s))
		}
		seen := make(map[int32]bool, tc.k)
		for _, v := range s {
			if v < 0 || int(v) >= tc.n {
				t.Fatalf("Sample(%d,%d) value %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("Sample(%d,%d) repeated value %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleUniformMembership(t *testing.T) {
	r := New(53)
	const n = 20
	const k = 5
	const trials = 40000
	var counts [n]int
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Sample membership for %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestSubsetEach(t *testing.T) {
	r := New(59)
	s := make([]int32, 1000)
	for i := range s {
		s[i] = int32(i)
	}
	// p = 0 keeps nothing, p = 1 keeps everything.
	if got := r.SubsetEach(nil, s, 0); len(got) != 0 {
		t.Fatalf("SubsetEach p=0 kept %d", len(got))
	}
	if got := r.SubsetEach(nil, s, 1); len(got) != len(s) {
		t.Fatalf("SubsetEach p=1 kept %d", len(got))
	}
	// Mean retained count for p = 0.2.
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		total += len(r.SubsetEach(nil, s, 0.2))
	}
	mean := float64(total) / trials
	if math.Abs(mean-200) > 10 {
		t.Fatalf("SubsetEach p=0.2 mean size %v, want ~200", mean)
	}
}

func TestSubsetEachPreservesOrder(t *testing.T) {
	r := New(61)
	s := make([]int32, 500)
	for i := range s {
		s[i] = int32(i)
	}
	got := r.SubsetEach(nil, s, 0.3)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("SubsetEach output not increasing at %d: %d <= %d", i, got[i], got[i-1])
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(67)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	if math.Abs(float64(hits)/trials-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) rate %v", float64(hits)/trials)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(71)
	sum, sumSq := 0.0, 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestUint64nPowerOfTwoFast(t *testing.T) {
	r := New(79)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(0.001)
	}
}

func TestPartialShuffleIsPermutation(t *testing.T) {
	r := New(31)
	const n = 100
	for _, k := range []int{0, 1, 17, n / 2, n - 1, n} {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i)
		}
		r.PartialShuffle(s, k)
		seen := make([]bool, n)
		for _, v := range s {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("k=%d: PartialShuffle broke the permutation at %d", k, v)
			}
			seen[v] = true
		}
	}
}

func TestPartialShuffleUniformMembership(t *testing.T) {
	// Element e lands in the k-prefix with probability k/n; check the
	// empirical frequency over many trials for a few elements.
	r := New(57)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	s := make([]int32, n)
	for trial := 0; trial < trials; trial++ {
		for i := range s {
			s[i] = int32(i)
		}
		r.PartialShuffle(s, k)
		for _, v := range s[:k] {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	sd := math.Sqrt(float64(trials) * (float64(k) / n) * (1 - float64(k)/n))
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*sd {
			t.Fatalf("element %d in prefix %d times, want ~%.0f (±%.0f)", v, c, want, 5*sd)
		}
	}
}

func TestPartialShufflePanics(t *testing.T) {
	r := New(1)
	for _, k := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PartialShuffle(len 3, k=%d) did not panic", k)
				}
			}()
			r.PartialShuffle(make([]int32, 3), k)
		}()
	}
}

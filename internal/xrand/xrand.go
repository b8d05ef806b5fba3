// Package xrand provides fast, deterministic pseudo-random number generation
// for the simulators and graph generators in this repository.
//
// The package exists (rather than using math/rand directly) for three
// reasons:
//
//  1. Reproducibility: every experiment in the repository is driven by an
//     explicit *Rand whose seed is recorded, so every number in
//     EXPERIMENTS.md can be regenerated bit-for-bit.
//  2. Stream independence: Derive produces statistically independent child
//     streams from a parent seed, which lets parallel trials and parallel
//     graph generation draw from non-overlapping sequences without
//     coordination.
//  3. Specialised distributions: geometric skip sampling (the core of the
//     G(n,p) generator), binomial sampling and partial Fisher–Yates
//     shuffles, none of which math/rand offers.
//
// The generator is xoshiro256**, seeded through splitmix64, the combination
// recommended by the xoshiro authors. It is not cryptographically secure and
// must not be used where security matters.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; derive one stream per goroutine with Derive.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output. It is
// used only to expand seeds into full xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give streams that
// are, for all practical purposes, independent.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitialises r in place to exactly the state New(seed) returns,
// so callers that hold many generators — the lane engine keeps one stream
// per trial lane — can reseed a batch of them per run without
// reallocating.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Derive returns a new generator whose stream is independent of r's for any
// practical purpose. The child stream depends on the parent seed state and
// on id, so the same (parent, id) pair always yields the same child. Derive
// does not advance r.
func (r *Rand) Derive(id uint64) *Rand {
	return New(r.DeriveSeed(id))
}

// DeriveSeed returns the seed of the child stream Derive(id) would produce,
// for call sites that transport a plain uint64 seed (for example a worker
// pool that reseeds per task). New(r.DeriveSeed(id)) is identical to
// r.Derive(id). DeriveSeed does not advance r.
func (r *Rand) DeriveSeed(id uint64) uint64 {
	// Mix the full parent state with the id through splitmix64.
	sm := r.s0 ^ rotl(r.s1, 13) ^ rotl(r.s2, 29) ^ rotl(r.s3, 41) ^ (id * 0xd1342543de82ef95)
	return splitmix64(&sm)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int31n called with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire's method with 128-bit multiply emulated via 64x64->128 split.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= uint64(-int64(n))%n {
			// Unbiased: -n % n == (2^64 - n) % n is the rejection threshold.
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	w0 := t & mask
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	hi = aHi*bHi + w2 + k
	lo = (t << 32) + w0
	return hi, lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials, i.e. a sample from the geometric
// distribution on {0, 1, 2, ...}. It panics unless 0 < p <= 1.
//
// This is the skip length used by the G(n,p) generator: instead of flipping
// a coin per candidate edge, the generator jumps Geometric(p) candidates at
// a time, giving O(n + m) expected generation time.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return r.GeometricLog(math.Log1p(-p))
}

// GeometricLog is Geometric(p) for a caller that has precomputed
// log1mp = math.Log1p(-p). Hot loops that draw many skips for the same p
// (the G(n,p) generator draws one per edge) hoist the invariant logarithm;
// the result is bitwise identical to Geometric(p).
//
// The defining formula is floor(Log1p(-u)/log1mp). Most draws take a
// table-driven logarithm instead and keep its floor only when a proven
// error bound puts the quotient safely between two integers; the rest
// evaluate the formula itself (see fastlog.go), so every result equals
// the formula's.
func (r *Rand) GeometricLog(log1mp float64) int {
	u := r.Float64()
	if k, ok := fastSkip(u, log1mp); ok {
		return k
	}
	// Float64 is in [0,1), so 1-u is in (0,1] and the log is finite.
	return int(math.Floor(math.Log1p(-u) / log1mp))
}

// Binomial returns a sample from Binomial(n, p). For small n·p it counts
// geometric skips; otherwise it uses direct summation over at most n coin
// flips in blocks. Complexity is O(min(n, n·p + 1)) expected.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("xrand: Binomial requires n >= 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the skip-counting loop runs O(n·min(p,1-p)) steps.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	log1mp := math.Log1p(-p)
	count := 0
	i := r.GeometricLog(log1mp)
	for i < n {
		count++
		i += 1 + r.GeometricLog(log1mp)
	}
	return count
}

// GeometricExp is Geometric(p) for a caller that has precomputed
// lambda = -math.Log1p(-p) > 0, drawing the underlying exponential with the
// ziggurat sampler instead of a logarithm: floor(Exp(1)/lambda) is exactly
// geometrically distributed with success probability p. Same distribution
// as Geometric(p), different stream, and roughly 3x cheaper per draw — the
// lane engine's per-lane binomial sampling sits on this.
func (r *Rand) GeometricExp(lambda float64) int {
	return int(r.ExpZiggurat() / lambda)
}

// BinomialExp returns a sample from Binomial(n, p) by counting
// ziggurat-exponential geometric skips. It follows exactly the same
// skip-counting structure (including the p > 0.5 mirror) as Binomial, so the
// two are distributionally identical; only the underlying uniform stream
// usage differs. Expected cost is O(n·min(p,1-p)) cheap exponential draws.
func (r *Rand) BinomialExp(n int, p float64) int {
	if n < 0 {
		panic("xrand: BinomialExp requires n >= 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.BinomialExp(n, 1-p)
	}
	lambda := -math.Log1p(-p)
	count := 0
	i := r.GeometricExp(lambda)
	for i < n {
		count++
		i += 1 + r.GeometricExp(lambda)
	}
	return count
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r.Shuffle32(p)
	return p
}

// Shuffle32 permutes s uniformly at random in place (Fisher–Yates).
func (r *Rand) Shuffle32(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// PartialShuffle performs the first k steps of a Fisher–Yates shuffle on
// s: after the call, s[:k] is a uniformly random k-subset of the original
// elements of s (in uniformly random order) and s[k:] holds the rest. It
// panics unless 0 <= k <= len(s).
//
// This is the distinct-k sampler of the sampled-transmitter fast path:
// drawing k ~ Binomial(len(s), q) and taking s[:k] after PartialShuffle
// is distributionally identical to retaining each element of s
// independently with probability q, at O(k) cost instead of O(len(s)).
// The caller owns the buffer, so repeated draws allocate nothing; s is
// permuted in place but keeps exactly the same element set.
func (r *Rand) PartialShuffle(s []int32, k int) {
	if k < 0 || k > len(s) {
		panic("xrand: PartialShuffle requires 0 <= k <= len(s)")
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0. For k close to n it shuffles a full
// permutation; for small k it uses a partial Fisher–Yates over a sparse map,
// so the cost is O(k) regardless of n.
func (r *Rand) Sample(n, k int) []int32 {
	if k < 0 || k > n {
		panic("xrand: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if 4*k >= n {
		p := r.Perm(n)
		return p[:k]
	}
	// Sparse partial Fisher–Yates: swap[i] records the value currently at
	// position i if it differs from i.
	swap := make(map[int32]int32, 2*k)
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		j := int32(i) + r.Int31n(int32(n-i))
		vi, ok := swap[int32(i)]
		if !ok {
			vi = int32(i)
		}
		vj, ok := swap[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swap[j] = vi
	}
	return out
}

// SubsetEach returns the elements of s each independently retained with
// probability p, using geometric skipping, appended to dst. The relative
// order of retained elements is preserved.
func (r *Rand) SubsetEach(dst, s []int32, p float64) []int32 {
	if p <= 0 || len(s) == 0 {
		return dst
	}
	if p >= 1 {
		return append(dst, s...)
	}
	log1mp := math.Log1p(-p)
	i := r.GeometricLog(log1mp)
	for i < len(s) {
		dst = append(dst, s[i])
		i += 1 + r.GeometricLog(log1mp)
	}
	return dst
}

// NormFloat64 returns a standard normal sample using the polar
// (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Ziggurat tables for ExpZiggurat (Marsaglia & Tsang, "The Ziggurat Method
// for Generating Random Variables", 2000), computed once at init from the
// published recurrence rather than pasted as opaque constants. 256 layers;
// zigR is the x-coordinate of the rightmost layer and zigV the common layer
// area.
const (
	zigR = 7.69711747013104972
	zigV = 3.949659822581572e-3
)

var (
	zigKE [256]uint32
	zigWE [256]float64
	zigFE [256]float64
)

func init() {
	const m2 = 1 << 32
	de, te := zigR, zigR
	q := zigV / math.Exp(-de)
	zigKE[0] = uint32((de / q) * m2)
	zigKE[1] = 0
	zigWE[0] = q / m2
	zigWE[255] = de / m2
	zigFE[0] = 1.0
	zigFE[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigV/de + math.Exp(-de))
		zigKE[i+1] = uint32((de / te) * m2)
		te = de
		zigFE[i] = math.Exp(-de)
		zigWE[i] = de / m2
	}
}

// ExpZiggurat returns an Exp(1) sample using the ziggurat method: roughly
// 2–3× cheaper than inversion (-log U) because ~98.9% of draws need one
// uniform, one table lookup and one compare, with no logarithm. The
// stream differs from inversion's, so switching a call site changes its
// sampled values (but not their distribution). The parallel G(n,p) generator draws its
// geometric skips as floor(ExpZiggurat()/λ), λ = -log(1-p).
func (r *Rand) ExpZiggurat() float64 {
	for {
		j := uint32(r.Uint64() >> 32)
		i := j & 0xFF
		x := float64(j) * zigWE[i]
		if j < zigKE[i] {
			return x
		}
		if i == 0 {
			// Tail: x = zigR + Exp(1). 1-Float64() is in (0,1], so the log
			// is finite.
			return zigR - math.Log(1-r.Float64())
		}
		if zigFE[i]+r.Float64()*(zigFE[i-1]-zigFE[i]) < math.Exp(-x) {
			return x
		}
	}
}

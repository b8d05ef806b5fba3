package stats

// Online (streaming) aggregators for the campaign runner: Welford
// mean/variance, Wilson score intervals for success probabilities and the
// P² quantile estimator. All of them consume samples one at a time in O(1)
// memory, so a campaign can aggregate millions of trials per grid point
// without retaining raw sample slices.
//
// Determinism note: Welford and P² are exact functions of the *sequence*
// of observations, not just the multiset — feeding the same samples in a
// different order gives (slightly, for Welford; possibly more, for P²)
// different results. Callers that need results independent of scheduling
// (the campaign runner) must feed samples in a canonical order.

import (
	"math"
	"sort"
)

// Welford accumulates count, mean and variance of a stream using
// Welford's numerically stable online algorithm. The zero value is an
// empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add consumes one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations consumed.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean, or NaN for an empty accumulator.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// for fewer than two observations — matching Variance on a slice.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95HalfWidth returns the half-width of the normal-approximation 95%
// confidence interval of the mean, 1.96·s/√n, or NaN for fewer than two
// observations. It matches Summary.MeanErrorHalfWide on the same sample.
func (w *Welford) CI95HalfWidth() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}

// Wilson returns the Wilson score interval for a binomial success
// probability: successes out of trials, at critical value z (1.96 for
// 95%). Unlike the normal approximation it stays inside [0,1] and behaves
// sensibly at 0 and trials successes. It returns (NaN, NaN) for zero
// trials and panics for negative inputs or successes > trials.
func Wilson(successes, trials int, z float64) (lo, hi float64) {
	if successes < 0 || trials < 0 || successes > trials {
		panic("stats: Wilson requires 0 <= successes <= trials")
	}
	if trials == 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	// In real arithmetic the interval touches 0 exactly when successes is
	// 0 and 1 exactly when successes is trials; snap away the
	// floating-point wobble so those endpoints are exact.
	if successes == 0 {
		lo = 0
	}
	if successes == trials {
		hi = 1
	}
	return lo, hi
}

// P2 estimates a single quantile of a stream with the P² algorithm (Jain
// & Chlamtac 1985): five markers tracked with piecewise-parabolic
// interpolation, O(1) memory and update time. The first five observations
// are stored exactly, so Value is exact for streams of length <= 5.
type P2 struct {
	p     float64
	count int
	q     [5]float64 // marker heights
	n     [5]int     // marker positions (1-based)
	np    [5]float64 // desired positions
	dn    [5]float64 // desired-position increments
}

// NewP2 returns a P² estimator for the p-th quantile, 0 <= p <= 1.
func NewP2(p float64) *P2 {
	if p < 0 || p > 1 {
		panic("stats: NewP2 requires 0 <= p <= 1")
	}
	return &P2{p: p}
}

// Add consumes one observation.
func (e *P2) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			p := e.p
			e.n = [5]int{1, 2, 3, 4, 5}
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	// Locate the cell k such that q[k] <= x < q[k+1], extending the
	// extreme markers when x falls outside them.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}
	e.count++
	// Adjust the three interior markers if they drifted off their desired
	// positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - float64(e.n[i])
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			qp := e.parabolic(i, s)
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker prediction.
func (e *P2) parabolic(i, s int) float64 {
	ni := float64(e.n[i])
	nm := float64(e.n[i-1])
	np := float64(e.n[i+1])
	d := float64(s)
	return e.q[i] + d/(np-nm)*((ni-nm+d)*(e.q[i+1]-e.q[i])/(np-ni)+(np-ni-d)*(e.q[i]-e.q[i-1])/(ni-nm))
}

// linear is the fallback linear marker prediction.
func (e *P2) linear(i, s int) float64 {
	return e.q[i] + float64(s)*(e.q[i+s]-e.q[i])/float64(e.n[i+s]-e.n[i])
}

// Count returns the number of observations consumed.
func (e *P2) Count() int { return e.count }

// Value returns the current quantile estimate: NaN for an empty stream,
// the exact quantile (linear interpolation, as Quantile) for up to five
// observations, and the P² marker estimate afterwards.
func (e *P2) Value() float64 {
	if e.count == 0 {
		return math.NaN()
	}
	if e.count <= 5 {
		s := make([]float64, e.count)
		copy(s, e.q[:e.count])
		sort.Float64s(s)
		return quantileSorted(s, e.p)
	}
	return e.q[2]
}

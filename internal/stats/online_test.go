package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := xrand.New(11)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	if w.N() != int64(len(xs)) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if m, bm := w.Mean(), Mean(xs); math.Abs(m-bm) > 1e-12 {
		t.Errorf("mean %v vs batch %v", m, bm)
	}
	if v, bv := w.Variance(), Variance(xs); math.Abs(v-bv) > 1e-9 {
		t.Errorf("variance %v vs batch %v", v, bv)
	}
	half := 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
	if hw := w.CI95HalfWidth(); math.Abs(hw-half) > 1e-9 {
		t.Errorf("CI half-width %v vs batch %v", hw, half)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) || !math.IsNaN(w.CI95HalfWidth()) {
		t.Error("empty Welford must be all-NaN")
	}
	w.Add(4)
	if w.Mean() != 4 {
		t.Errorf("single-element mean = %v, want 4", w.Mean())
	}
	if !math.IsNaN(w.Variance()) || !math.IsNaN(w.CI95HalfWidth()) {
		t.Error("single-element Welford dispersion must be NaN")
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0, 1.96)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("Wilson with zero trials must be NaN")
	}
	// Against the classic worked example: 10/100 at z=1.96 gives
	// approximately [0.0552, 0.1744].
	lo, hi = Wilson(10, 100, 1.96)
	if math.Abs(lo-0.0552) > 5e-4 || math.Abs(hi-0.1744) > 5e-4 {
		t.Errorf("Wilson(10,100) = [%v, %v], want about [0.0552, 0.1744]", lo, hi)
	}
	// Stays inside [0,1] even at the extremes, unlike the normal interval.
	lo, hi = Wilson(0, 20, 1.96)
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Errorf("Wilson(0,20) = [%v, %v], want [0, (0,1))", lo, hi)
	}
	lo, hi = Wilson(20, 20, 1.96)
	if hi != 1 || lo >= 1 || lo <= 0 {
		t.Errorf("Wilson(20,20) = [%v, %v], want ((0,1), 1]", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("Wilson with successes > trials must panic")
		}
	}()
	Wilson(5, 4, 1.96)
}

func TestP2SmallStreamsExact(t *testing.T) {
	e := NewP2(0.5)
	if !math.IsNaN(e.Value()) {
		t.Error("empty P2 must be NaN")
	}
	for _, x := range []float64{5, 1, 3} {
		e.Add(x)
	}
	if got := e.Value(); got != 3 {
		t.Errorf("P2 median of {5,1,3} = %v, want 3", got)
	}
	if e.Count() != 3 {
		t.Errorf("Count = %d, want 3", e.Count())
	}
	// Five observations are still exact: the markers are the sorted
	// sample, but the middle one is the median whatever p is.
	five := []float64{28, 22, 24, 27, 22}
	for _, p := range []float64{0.1, 0.9} {
		e := NewP2(p)
		for _, x := range five {
			e.Add(x)
		}
		if got, want := e.Value(), Quantile(five, p); got != want {
			t.Errorf("P2(%v) of %v = %v, want %v", p, five, got, want)
		}
	}
}

func TestP2ApproximatesQuantiles(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		rng := xrand.New(42)
		e := NewP2(p)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			e.Add(xs[i])
		}
		exact := Quantile(xs, p)
		got := e.Value()
		// P² on 20k unimodal samples lands well within a few percent of
		// the distribution scale.
		if math.Abs(got-exact) > 0.05 {
			t.Errorf("P2(%v) = %v, exact %v", p, got, exact)
		}
	}
}

func TestP2Deterministic(t *testing.T) {
	feed := func() float64 {
		rng := xrand.New(9)
		e := NewP2(0.9)
		for i := 0; i < 5000; i++ {
			e.Add(rng.Float64())
		}
		return e.Value()
	}
	if a, b := feed(), feed(); a != b {
		t.Errorf("P2 not deterministic: %v vs %v", a, b)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if !math.IsNaN(Quantile(nil, q)) {
			t.Errorf("Quantile(nil, %v) must be NaN", q)
		}
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile([7], %v) = %v, want 7", q, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile with q > 1 must panic")
		}
	}()
	Quantile([]float64{1, 2}, 1.5)
}

func TestSummarizeEdgeCases(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("N = %d, want 0", s.N)
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean, "StdDev": s.StdDev, "Min": s.Min, "Median": s.Median,
		"Max": s.Max, "P10": s.P10, "P90": s.P90, "CILow": s.CILow,
		"CIHigh": s.CIHigh, "MeanErrorHalfWide": s.MeanErrorHalfWide,
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty Summarize: %s = %v, want NaN", name, v)
		}
	}
	s = Summarize([]float64{3})
	if s.N != 1 {
		t.Errorf("N = %d, want 1", s.N)
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean, "Min": s.Min, "Median": s.Median,
		"Max": s.Max, "P10": s.P10, "P90": s.P90,
	} {
		if v != 3 {
			t.Errorf("single-element Summarize: %s = %v, want 3", name, v)
		}
	}
	for name, v := range map[string]float64{
		"StdDev": s.StdDev, "CILow": s.CILow, "CIHigh": s.CIHigh,
		"MeanErrorHalfWide": s.MeanErrorHalfWide,
	} {
		if !math.IsNaN(v) {
			t.Errorf("single-element Summarize: %s = %v, want NaN", name, v)
		}
	}
}

func TestBootstrapCIEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		xs        []float64
		resamples int
		rng       *xrand.Rand
	}{
		{"empty input", nil, 100, xrand.New(1)},
		{"one resample", []float64{1, 2}, 1, xrand.New(1)},
		{"nil rng", []float64{1, 2}, 100, nil},
	}
	for _, c := range cases {
		lo, hi := BootstrapCI(c.xs, c.resamples, c.rng)
		if !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("%s: BootstrapCI = [%v, %v], want NaN", c.name, lo, hi)
		}
	}
	// A single-element sample only ever resamples itself: degenerate CI.
	lo, hi := BootstrapCI([]float64{4}, 50, xrand.New(1))
	if lo != 4 || hi != 4 {
		t.Errorf("single-element BootstrapCI = [%v, %v], want [4, 4]", lo, hi)
	}
}

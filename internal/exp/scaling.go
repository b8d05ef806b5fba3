package exp

// Experiments E1, E2 and E4: the upper-bound scaling claims of Theorems 5
// and 7. Each runs its campaign preset (internal/campaign/presets.go,
// which owns the n and d ladders) and renders the report's points, so
// `campaign spec -preset e1` and `experiments E1` measure one thing.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/table"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Centralized broadcast time vs n (Theorem 5)",
		Claim: "Centralized broadcasting on G(n,p) completes in O(ln n/ln d + ln d) rounds w.h.p.",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Centralized broadcast time vs d (Theorem 5, U-shape)",
		Claim: "At fixed n the bound ln n/ln d + ln d is minimised near d = exp(sqrt(ln n)); measured rounds should trace the same U-shape.",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Distributed broadcast time vs n (Theorem 7)",
		Claim: "The randomized distributed protocol completes in O(ln n) rounds w.h.p.",
		Run:   runE4,
	})
}

func runE1(cfg Config) []*table.Table {
	r := runPreset("e1", cfg)
	t := table.New("E1: centralized rounds vs n  (d = 2 ln n, mean over trials)",
		"n", "d", "rounds", "p10", "p90", "bound", "rounds/bound")
	var ratios []float64
	for _, p := range r.Points {
		mean, bound := float64(p.Mean), core.CentralizedBound(p.N, float64(p.D))
		ratios = append(ratios, mean/bound)
		t.AddRow(p.N, float64(p.D), mean, float64(p.P10), float64(p.P90), bound, mean/bound)
	}
	spread := stats.RatioSpread(ratios, ones(len(ratios)))
	t.AddNote("trials=%d seed=%d; ratio spread max/min = %.2f (Θ-claim holds if bounded, ~<3)",
		r.Trials, cfg.Seed, spread)
	return []*table.Table{t}
}

func runE2(cfg Config) []*table.Table {
	r := runPreset("e2", cfg)
	n := r.Points[0].N
	t := table.New(fmt.Sprintf("E2: centralized rounds vs d  (n = %d)", n),
		"d", "rounds", "bound", "rounds/bound")
	var meas, bounds []float64
	for _, p := range r.Points {
		mean, bound := float64(p.Mean), core.CentralizedBound(n, float64(p.D))
		meas = append(meas, mean)
		bounds = append(bounds, bound)
		t.AddRow(float64(p.D), mean, bound, mean/bound)
	}
	t.AddNote("optimal degree per theory: d* = exp(sqrt(ln n)) = %.1f", core.OptimalDegree(n))
	t.AddNote("ratio spread across the sweep: %.2f", stats.RatioSpread(meas, bounds))
	return []*table.Table{t}
}

func runE4(cfg Config) []*table.Table {
	r := runPreset("e4", cfg)
	// Preset e4 lists the d = 2 ln n ladder, then the d = n^0.4 ladder.
	half := len(r.Points) / 2
	var out []*table.Table
	for i, regime := range []string{"d = 2 ln n", "d = n^0.4"} {
		rt := table.New(fmt.Sprintf("E4 (%s)", regime),
			"n", "d", "rounds", "p10", "p90", "ln n", "rounds/ln n")
		var ns, rounds []float64
		for _, p := range r.Points[i*half : (i+1)*half] {
			mean, lnN := float64(p.Mean), core.DistributedBound(p.N)
			ns = append(ns, float64(p.N))
			rounds = append(rounds, mean)
			rt.AddRow(p.N, float64(p.D), mean, float64(p.P10), float64(p.P90), lnN, mean/lnN)
		}
		fit := stats.FitLogarithm(ns, rounds)
		rt.AddNote("fit rounds = a·ln n + b: a=%.2f b=%.2f R²=%.3f (Θ(ln n) claim: good fit, stable a)",
			fit.Slope, fit.Intercept, fit.R2)
		out = append(out, rt)
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

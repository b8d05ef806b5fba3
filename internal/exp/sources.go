package exp

// Experiment E18: the "for any u ∈ V" quantifier of Theorems 5 and 7, and
// multi-source speedup.

import (
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Extension: source invariance and multi-source speedup",
		Claim: "The theorems hold 'for any u ∈ V': completion time barely depends on the source; and k replicated sources shave the diameter term, converging to the ln d floor.",
		Run:   runE18,
	})
}

func runE18(cfg Config) []*table.Table {
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	d := 2 * math.Log(float64(n))
	rng := xrand.New(cfg.Seed)
	g := sampleConnected(n, d, rng)
	maxR := core.MaxRoundsFor(n)

	// E18a: sweep many random sources with the distributed protocol.
	k := map[Scale]int{Small: 10, Medium: 30, Full: 50}[cfg.Scale]
	times := sweep.Sources(g, k, core.NewDistributedProtocol(n, d), maxR, rng)
	s := stats.Summarize(stats.Ints(times))
	t1 := table.New("E18a: distributed completion time across random sources",
		"sources", "min", "median", "mean", "max", "max/min")
	t1.AddRow(k, s.Min, s.Median, s.Mean, s.Max, s.Max/math.Max(s.Min, 1))
	t1.AddNote("a small max/min spread is the finite-size form of 'for any u ∈ V'")

	// E18b: multi-source speedup.
	t2 := table.New("E18b: multi-source broadcast (median rounds over trials)",
		"k sources", "median rounds", "rounds/ln n")
	trials := cfg.trials(5)
	for _, k := range []int{1, 4, 16, 64, 256} {
		if k > n/4 {
			break
		}
		var ts []float64
		for trial := 0; trial < trials; trial++ {
			r := rng.Derive(uint64(k*1000 + trial))
			sources := r.Sample(n, k)
			res := runProtocol(g, sources, core.NewDistributedProtocol(n, d), maxR, r)
			rounds := res.Rounds
			if !res.Completed {
				rounds = maxR + 1
			}
			ts = append(ts, float64(rounds))
		}
		t2.AddRow(k, stats.Median(ts), stats.Median(ts)/math.Log(float64(n)))
	}
	t2.AddNote("speedup saturates: the ln d collision-resolution floor is source-count independent")
	return []*table.Table{t1, t2}
}

package exp

// Experiment E12: ablations of the design choices called out in DESIGN.md
// §4 — what the paper's proofs require versus what the measured system
// actually needs.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Ablations of the paper's design choices",
		Claim: "Disjoint selective sets, 1/d selectivity, the independent-cover finish (Thm 5) and the selective-pool definition (Thm 7) each earn their place.",
		Run:   runE12,
	})
}

func runE12(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	d := 2 * math.Log(float64(n))

	// A1–A3: centralized schedule variants.
	t1 := table.New(fmt.Sprintf("E12a: centralized ablations (n=%d, d=2 ln n)", n),
		"variant", "rounds (mean)", "vs default")
	variants := []struct {
		name string
		mod  func(*core.CentralizedConfig)
	}{
		{"default (paper)", func(c *core.CentralizedConfig) {}},
		{"A1: non-disjoint selective sets", func(c *core.CentralizedConfig) { c.DisjointSelectiveSets = false }},
		{"A2: no cover finish", func(c *core.CentralizedConfig) { c.CoverFinish = false }},
		{"A3: selectivity 1/sqrt(d)", func(c *core.CentralizedConfig) { c.Selectivity = 1 / math.Sqrt(d) }},
		{"A3: selectivity 1/d^2", func(c *core.CentralizedConfig) { c.Selectivity = 1 / (d * d) }},
	}
	var baseline float64
	for i, v := range variants {
		v := v
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*811, func(rng *xrand.Rand) float64 {
			g := sampleConnected(n, d, rng)
			c := core.DefaultCentralizedConfig(rng.Uint64())
			v.mod(&c)
			sched, _, err := core.BuildCentralizedSchedule(g, 0, d, c)
			if err != nil {
				panic(err)
			}
			res, err := replay(g, sched)
			if err != nil || !res.Completed {
				panic(fmt.Sprintf("ablation %q failed: %v", v.name, err))
			}
			return float64(res.Rounds)
		})
		mean := stats.Mean(samples)
		if i == 0 {
			baseline = mean
		}
		t1.AddRow(v.name, mean, mean/baseline)
	}

	// A4: distributed pool definitions.
	t2 := table.New(fmt.Sprintf("E12b: distributed pool ablations (n=%d, d=2 ln n)", n),
		"variant", "median rounds", "completed")
	maxR := core.MaxRoundsFor(n)
	pools := []struct {
		name string
		mk   func() radio.Protocol
	}{
		{"proof: all informed (default)", func() radio.Protocol { return core.NewDistributedProtocol(n, d) }},
		{"literal pool + safety valve", func() radio.Protocol { return core.NewRestrictedPoolProtocol(n, d) }},
		{"literal pool, no valve", func() radio.Protocol {
			p := core.NewRestrictedPoolProtocol(n, d)
			p.SafetyRound = 0
			return p
		}},
	}
	for i, v := range pools {
		v := v
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*907, func(rng *xrand.Rand) float64 {
			g := sampleConnected(n, d, rng)
			return float64(broadcastTime(g, v.mk(), maxR, rng))
		})
		completed := 0
		for _, s := range samples {
			if int(s) <= maxR {
				completed++
			}
		}
		t2.AddRow(v.name, stats.Median(samples), fmt.Sprintf("%d/%d", completed, trials))
	}
	t2.AddNote("the literal protocol statement (pool = first-phase nodes) strands finite instances; the proof's pool (all informed) is what works")
	return []*table.Table{t1, t2}
}

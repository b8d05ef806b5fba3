package exp

// Experiment E19: what the protocol needs to know. The paper's model
// gives nodes (n, p) and no collision detection. E19 varies both axes:
// misparameterised (n,p) knowledge, and the CD model where an AIMD
// backoff protocol needs no knowledge at all.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Extension: knowledge requirements and collision detection",
		Claim: "The Theorem 7 protocol degrades gracefully under misestimated d; with collision detection, a knowledge-free AIMD backoff protocol gets within a constant factor of it — CD substitutes for the (n,p) knowledge the paper assumes.",
		Run:   runE19,
	})
}

func runE19(cfg Config) []*table.Table {
	trials := cfg.trials(5)
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	d := 2 * math.Log(float64(n))
	rng := xrand.New(cfg.Seed)
	g := sampleConnected(n, d, rng)
	budget := 40 * core.MaxRoundsFor(n)
	lnN := math.Log(float64(n))

	// E19a: misparameterised degree knowledge.
	t1 := table.New(fmt.Sprintf("E19a: Theorem 7 protocol with wrong degree estimates (n=%d, true d=%.1f)", n, d),
		"assumed d", "median rounds", "vs correct")
	var correct float64
	for i, factor := range []float64{1, 0.25, 0.5, 2, 4, 16} {
		assumed := d * factor
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*1511, func(r *xrand.Rand) float64 {
			return float64(broadcastTime(g, core.NewDistributedProtocol(n, assumed), budget, r))
		})
		med := stats.Median(samples)
		if i == 0 {
			correct = med
		}
		t1.AddRow(assumed, med, med/correct)
	}
	t1.AddNote("underestimating d (selectivity too high) costs more than overestimating: extra collisions vs extra silence")

	// E19b: collision detection buys knowledge-freeness.
	t2 := table.New(fmt.Sprintf("E19b: knowledge vs collision detection (n=%d)", n),
		"protocol", "knows", "CD", "median rounds", "x ln n")
	rows := []struct {
		name, knows, cd string
		run             func(r *xrand.Rand) float64
	}{
		{"paper (Thm 7)", "n, p", "no", func(r *xrand.Rand) float64 {
			return float64(broadcastTime(g, core.NewDistributedProtocol(n, d), budget, r))
		}},
		{"decay (BGI)", "n", "no", func(r *xrand.Rand) float64 {
			return float64(broadcastTime(g, protocols.NewDecay(n), budget, r))
		}},
		{"AIMD backoff", "nothing", "yes", func(r *xrand.Rand) float64 {
			res := runCD(g, protocols.NewBackoff(n), budget, r)
			if !res.Completed {
				return float64(budget + 1)
			}
			return float64(res.Rounds)
		}},
	}
	for i, row := range rows {
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*1607, row.run)
		med := stats.Median(samples)
		t2.AddRow(row.name, row.knows, row.cd, med, med/lnN)
	}
	t2.AddNote("the backoff protocol learns its rate from collisions instead of computing 1/d from p")
	return []*table.Table{t1, t2}
}

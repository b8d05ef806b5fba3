package exp

// Experiment E22: the δ in p ≥ δ·ln n/n. The paper assumes δ large enough
// for connectivity w.h.p. (δ > 1 is the classical threshold). E22 sweeps
// the degree constant c in d = c·ln n across the threshold and measures
// (a) how often G(n,p) is connected and (b) how the distributed broadcast
// time behaves just above the threshold, where the diameter inflates.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "Extension: behaviour at the connectivity threshold (the paper's δ)",
		Claim: "Below c = 1 (d = c·ln n) G(n,p) is essentially never connected; just above it broadcast works but pays an inflated diameter; by c = 2 (the regime used throughout) times settle to the flat Θ(ln n) plateau.",
		Run:   runE22,
	})
}

func runE22(cfg Config) []*table.Table {
	trials := cfg.trials(10)
	n := map[Scale]int{Small: 2000, Medium: 16000, Full: 64000}[cfg.Scale]
	t := table.New(fmt.Sprintf("E22: degree constant sweep d = c·ln n (n=%d)", n),
		"c", "connected", "diameter (2-sweep)", "distributed rounds", "rounds/ln n")
	lnN := math.Log(float64(n))
	for i, c := range []float64{0.6, 0.8, 1.0, 1.2, 1.5, 2, 3, 5} {
		d := c * lnN
		p := gen.PForDegree(n, d)
		parent := xrand.New(cfg.Seed + uint64(i)*2003)
		connectedCount := 0
		var diams, rounds []float64
		for trial := 0; trial < trials; trial++ {
			rng := parent.Derive(uint64(trial) + 1)
			g := gen.Gnp(n, p, rng)
			if !graph.IsConnected(g) {
				continue
			}
			connectedCount++
			diams = append(diams, float64(graph.DiameterLower(g, 0)))
			rounds = append(rounds, float64(broadcastTime(g, core.NewDistributedProtocol(n, d), 4*core.MaxRoundsFor(n), rng)))
		}
		diam, round := math.NaN(), math.NaN()
		if connectedCount > 0 {
			diam = stats.Median(diams)
			round = stats.Median(rounds)
		}
		t.AddRow(c, fmt.Sprintf("%d/%d", connectedCount, trials), diam, round, round/lnN)
	}
	t.AddNote("connectivity flips at c = 1 (the classical ln n/n threshold); the paper's δ buys the flat plateau beyond it")
	return []*table.Table{t}
}

package exp

// Experiments E15, E16 and E17: engineering-grade probes beyond the
// paper's statements — the centralized schedule family, crash-fault
// robustness, and community-structured topologies.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lower"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Centralized schedule family (paper vs adversary vs deterministic cover)",
		Claim: "The Theorem 5 schedule sits between the greedy full-knowledge adversary (near-OPT) and the deterministic layered set-cover family from the §1.2 related work; post-hoc compression finds little slack in it.",
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Extension: crash-fault robustness of the distributed protocol",
		Claim: "Under independent crashes at rate q, survivors of G(n,p) form G(n', p) with n' ≈ (1−q)n, so the Theorem 7 protocol (re-parameterised with the survivor degree) keeps its O(ln n) completion until the survivor degree nears the connectivity threshold.",
		Run:   runE16,
	})
	register(Experiment{
		ID:    "E17",
		Title: "Extension: community structure (stochastic block model)",
		Claim: "Broadcast time stays logarithmic while the inter-community degree is ω(1), and blows up as the bridge thins — the homogeneity of G(n,p) is doing real work in the paper's bounds.",
		Run:   runE17,
	})
}

func runE15(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 800, Medium: 4000, Full: 16000}[cfg.Scale]
	d := 2 * math.Log(float64(n))
	t := table.New(fmt.Sprintf("E15: centralized schedule family on G(n=%d, d=2 ln n) (mean rounds)", n),
		"schedule", "rounds", "transmissions", "collisions", "vs bound")
	bound := core.CentralizedBound(n, d)

	type row struct {
		name string
		run  func(g *graph.Graph, rng *xrand.Rand) radio.Result
	}
	rows := []row{
		{"greedy adversary (near-OPT)", func(g *graph.Graph, rng *xrand.Rand) radio.Result {
			_, res, err := lower.GreedyAdaptiveSchedule(g, 0, 100000)
			if err != nil {
				panic(err)
			}
			return res
		}},
		{"paper (Thm 5)", func(g *graph.Graph, rng *xrand.Rand) radio.Result {
			sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(rng.Uint64()))
			if err != nil {
				panic(err)
			}
			res, err := replay(g, sched)
			if err != nil {
				panic(err)
			}
			return res
		}},
		{"paper + compression", func(g *graph.Graph, rng *xrand.Rand) radio.Result {
			sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(rng.Uint64()))
			if err != nil {
				panic(err)
			}
			comp, err := core.CompressSchedule(g, 0, sched)
			if err != nil {
				panic(err)
			}
			res, err := replay(g, comp)
			if err != nil {
				panic(err)
			}
			return res
		}},
		{"layered set-cover (deterministic)", func(g *graph.Graph, rng *xrand.Rand) radio.Result {
			sched, err := core.BuildLayeredCoverSchedule(g, 0)
			if err != nil {
				panic(err)
			}
			res, err := replay(g, sched)
			if err != nil {
				panic(err)
			}
			return res
		}},
		{"round robin (naive)", func(g *graph.Graph, rng *xrand.Rand) radio.Result {
			res, err := replay(g, core.RoundRobinSchedule(g, 0))
			if err != nil {
				panic(err)
			}
			return res
		}},
	}
	for i, r := range rows {
		r := r
		var rounds, txs, cols []float64
		parent := xrand.New(cfg.Seed + uint64(i)*1201)
		for trial := 0; trial < trials; trial++ {
			rng := parent.Derive(uint64(trial) + 1)
			g := sampleConnected(n, d, rng)
			res := r.run(g, rng)
			if !res.Completed {
				panic(fmt.Sprintf("E15 %q incomplete", r.name))
			}
			rounds = append(rounds, float64(res.Rounds))
			txs = append(txs, float64(res.Stats.Transmissions))
			cols = append(cols, float64(res.Stats.Collisions))
		}
		t.AddRow(r.name, stats.Mean(rounds), stats.Mean(txs), stats.Mean(cols),
			stats.Mean(rounds)/bound)
	}
	t.AddNote("bound = ln n/ln d + ln d = %.2f; trials=%d", bound, trials)
	return []*table.Table{t}
}

func runE16(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	d := 4 * math.Log(float64(n)) // headroom so survivors stay connected at high q
	t := table.New(fmt.Sprintf("E16: crash faults, n=%d, base d=4 ln n", n),
		"crash rate q", "survivor d", "reached/reachable", "rounds (mean)", "rounds/ln n'")
	for i, q := range []float64{0, 0.1, 0.3, 0.5, 0.7} {
		parent := xrand.New(cfg.Seed + uint64(i)*1301)
		var ratios, rounds, norm []float64
		for trial := 0; trial < trials; trial++ {
			rng := parent.Derive(uint64(trial) + 1)
			g := sampleConnected(n, d, rng)
			sc := faults.Crash(g, 0, q, rng)
			reachable := sc.ReachableFromSource()
			dSurv := d * (1 - q)
			p := core.NewDistributedProtocol(sc.Sub.N(), dSurv)
			res := runProtocol(sc.Sub, []int32{sc.SrcNew}, p, 4*core.MaxRoundsFor(n), rng)
			frac := 1.0
			if reachable > 0 {
				frac = float64(res.Informed) / float64(reachable)
			}
			ratios = append(ratios, frac)
			lnSurv := math.Log(math.Max(float64(sc.Sub.N()), 2))
			norm = append(norm, float64(res.Rounds)/lnSurv)
			rounds = append(rounds, float64(res.Rounds))
		}
		t.AddRow(q, d*(1-q), stats.Mean(ratios), stats.Mean(rounds), stats.Mean(norm))
	}
	t.AddNote("reached/reachable = informed survivors over survivors the source can reach at all")
	return []*table.Table{t}
}

func runE17(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	dIn := 4 * math.Log(float64(n))
	t := table.New(fmt.Sprintf("E17: two-community SBM, n=%d, intra-degree=4 ln n", n),
		"bridge edges (total)", "distributed rounds", "rounds/ln n", "completed")
	half := float64(n) / 2
	// Sweep the AGGREGATE number of cross-community edges, from a single
	// bridge edge up to Θ(n): the thin end is where homogeneity breaks.
	bridges := []float64{1, 4, float64(int(math.Log(float64(n)))), 16, half / 4, half}
	sort.Float64s(bridges)
	for i, b := range bridges {
		b := b
		pOut := b / (half * half)
		if pOut > 1 {
			pOut = 1
		}
		maxR := 40 * core.MaxRoundsFor(n)
		completed := 0
		samples := sweep.Run(trials, cfg.Seed+uint64(i)*1409, func(rng *xrand.Rand) float64 {
			// Condition on connectivity (at least one bridge edge): the
			// claim is about crossing a thin bridge, not about its
			// existence.
			var g *graph.Graph
			for try := 0; ; try++ {
				g = gen.TwoBlocks(n, gen.PForDegree(n/2, dIn), pOut, rng)
				if graph.IsConnected(g) {
					break
				}
				if try > 100 {
					return float64(maxR + 1)
				}
			}
			dTotal := dIn + b/half
			p := core.NewDistributedProtocol(n, dTotal)
			return float64(broadcastTime(g, p, maxR, rng))
		})
		for _, s := range samples {
			if int(s) <= maxR {
				completed++
			}
		}
		t.AddRow(b, stats.Median(samples), stats.Median(samples)/math.Log(float64(n)),
			fmt.Sprintf("%d/%d", completed, trials))
	}
	t.AddNote("crossing a single bridge edge costs ~d extra rounds (its endpoint must transmit alone among the far endpoint's ~d neighbours); with Θ(ln n) or more bridge edges the logarithmic time is restored")
	return []*table.Table{t}
}

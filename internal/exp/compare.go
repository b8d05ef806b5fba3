package exp

// Experiments E5, E10 and E11: protocol and model comparisons.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/rumor"
	"repro/internal/selective"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/table"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Distributed protocol vs baselines (§1.2 related work)",
		Claim: "On G(n,p) the paper's O(ln n) protocol beats Decay (O(log² n) here since D = O(log n/log log n)), ALOHA, round-robin (Θ(n)) and selective-family schedules.",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Radio vs single-port models (§1.2)",
		Claim: "Push rumor spreading completes in O(log n) on G(n,p) (Feige et al.); the radio protocol pays a constant-factor collision penalty but matches the Θ(log n) scaling; on bounded-degree graphs (hypercube, random regular) both slow to their diameter terms.",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "G(n,m) equivalence (§1.1)",
		Claim: "The results hold for Erdős–Rényi G(n,m) as well as Gilbert G(n,p): matched instances give matching broadcast times.",
		Run:   runE11,
	})
}

func runE5(cfg Config) []*table.Table {
	trials := cfg.trials(5)
	n := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	d := 2 * math.Log(float64(n))
	rng := xrand.New(cfg.Seed)
	g := sampleConnected(n, d, rng)
	maxRounds := 4 * n // lets round-robin finish, others finish far earlier

	t := table.New(fmt.Sprintf("E5: protocol comparison on G(n=%d, d=2 ln n)", n),
		"protocol", "median rounds", "mean", "completed", "rounds/ln n", "transmissions (energy)")
	lnN := math.Log(float64(n))
	family := selective.Random(n, int(4*d), int(math.Ceil(math.Log2(float64(n)))), rng.Derive(77))
	for _, entry := range []struct {
		name string
		p    radio.Protocol
	}{
		{"paper (Thm 7)", core.NewDistributedProtocol(n, d)},
		{"paper, literal pool + valve", core.NewRestrictedPoolProtocol(n, d)},
		{"decay (BGI)", protocols.NewDecay(n)},
		{"aloha 1/d", protocols.NewAloha(d)},
		{"selective family", &selective.Protocol{F: family}},
		{"round robin", &protocols.RoundRobin{N: n}},
	} {
		p := entry.p
		// One trial per energy figure suffices; rounds get the full sweep.
		energyRes := runProtocol(g, []int32{0}, p, maxRounds, rng.Derive(hash(entry.name)))
		samples := sweep.Run(trials, cfg.Seed+hash(entry.name), func(r *xrand.Rand) float64 {
			return float64(broadcastTime(g, p, maxRounds, r))
		})
		completed := 0
		for _, s := range samples {
			if int(s) <= maxRounds {
				completed++
			}
		}
		t.AddRow(entry.name, stats.Median(samples), stats.Mean(samples),
			fmt.Sprintf("%d/%d", completed, trials), stats.Median(samples)/lnN,
			energyRes.Stats.Transmissions)
	}
	t.AddNote("trials=%d; round budget %d (sentinel budget+1 on failure); energy column from one representative run", trials, maxRounds)
	return []*table.Table{t}
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func runE10(cfg Config) []*table.Table {
	trials := cfg.trials(5)
	nGnp := map[Scale]int{Small: 1000, Medium: 8000, Full: 32000}[cfg.Scale]
	dim := map[Scale]int{Small: 10, Medium: 13, Full: 15}[cfg.Scale]
	nReg := map[Scale]int{Small: 1000, Medium: 8192, Full: 32768}[cfg.Scale]

	rng := xrand.New(cfg.Seed)
	type topo struct {
		name string
		g    *graph.Graph
		d    float64
	}
	dGnp := 2 * math.Log(float64(nGnp))
	// Bimodal configuration model: 90% low-degree nodes, 10% hubs, same
	// mean degree as the G(n,p) row — degree heterogeneity with matched
	// density.
	nLow := nGnp * 9 / 10
	nHigh := nGnp - nLow
	lowDeg := int(dGnp / 2)
	highDeg := (int(dGnp)*nGnp - lowDeg*nLow) / nHigh
	bimodal := gen.ConfigurationModel(gen.BimodalSequence(nLow, lowDeg, nHigh, highDeg), rng)
	topos := []topo{
		{"G(n,p) d=2 ln n", sampleConnected(nGnp, dGnp, rng), dGnp},
		{fmt.Sprintf("hypercube dim %d", dim), gen.Hypercube(dim), float64(dim)},
		{"random regular d=16", gen.RandomRegular(nReg, 16, rng), 16},
		{"bimodal config model", bimodal, dGnp},
	}
	t := table.New("E10: radio distributed vs single-port rumor spreading (median rounds)",
		"topology", "n", "radio (Thm 7)", "push", "push-pull", "agents k=n/8", "diameter")
	for _, tp := range topos {
		n := tp.g.N()
		maxR := 200 * core.MaxRoundsFor(n)
		radioT := sweep.Run(trials, cfg.Seed+hash(tp.name), func(r *xrand.Rand) float64 {
			return float64(broadcastTime(tp.g, core.NewDistributedProtocol(n, tp.d), core.MaxRoundsFor(n), r))
		})
		pushT := sweep.Run(trials, cfg.Seed+hash(tp.name)+1, func(r *xrand.Rand) float64 {
			return float64(rumor.SpreadTime(tp.g, 0, rumor.Push, maxR, r))
		})
		ppT := sweep.Run(trials, cfg.Seed+hash(tp.name)+2, func(r *xrand.Rand) float64 {
			return float64(rumor.SpreadTime(tp.g, 0, rumor.PushPull, maxR, r))
		})
		agentT := sweep.Run(trials, cfg.Seed+hash(tp.name)+3, func(r *xrand.Rand) float64 {
			res := rumor.Agents(tp.g, 0, n/8+1, maxR, r)
			if !res.Completed {
				return float64(maxR + 1)
			}
			return float64(res.Rounds)
		})
		diam := graph.DiameterLower(tp.g, 0)
		t.AddRow(tp.name, n, stats.Median(radioT), stats.Median(pushT),
			stats.Median(ppT), stats.Median(agentT), diam)
	}
	t.AddNote("radio pays collisions; push/pull/agents use collision-free single-port links")
	return []*table.Table{t}
}

func runE11(cfg Config) []*table.Table {
	trials := cfg.trials(3)
	t := table.New("E11: Gilbert G(n,p) vs Erdős–Rényi G(n,m) (matched m = p·C(n,2))",
		"n", "d", "model", "centralized rounds", "distributed rounds")
	var ns []int
	switch cfg.Scale {
	case Small:
		ns = []int{1000}
	case Medium:
		ns = []int{4000, 16000}
	default:
		ns = []int{4000, 16000, 64000}
	}
	for i, n := range ns {
		d := 2 * math.Log(float64(n))
		p := gen.PForDegree(n, d)
		m := int(p * float64(n) * float64(n-1) / 2)
		for _, model := range []string{"G(n,p)", "G(n,m)"} {
			model := model
			cent := sweep.Run(trials, cfg.Seed+uint64(i)*601+hash(model), func(rng *xrand.Rand) float64 {
				g := sampleModel(model, n, p, m, rng)
				return float64(centralizedRounds(g, d, rng.Uint64()))
			})
			dist := sweep.Run(trials, cfg.Seed+uint64(i)*601+hash(model)+5, func(rng *xrand.Rand) float64 {
				g := sampleModel(model, n, p, m, rng)
				return float64(distributedRounds(g, d, rng))
			})
			t.AddRow(n, d, model, stats.Mean(cent), stats.Mean(dist))
		}
	}
	t.AddNote("matching rounds across the two models reproduce the §1.1 equivalence remark")
	return []*table.Table{t}
}

// sampleModel draws a connected sample from the requested random-graph
// model.
func sampleModel(model string, n int, p float64, m int, rng *xrand.Rand) *graph.Graph {
	for tries := 0; tries < 100; tries++ {
		var g *graph.Graph
		if model == "G(n,m)" {
			g = gen.Gnm(n, m, rng)
		} else {
			g = gen.Gnp(n, p, rng)
		}
		if graph.IsConnected(g) {
			return g
		}
	}
	panic("exp: no connected sample for " + model)
}

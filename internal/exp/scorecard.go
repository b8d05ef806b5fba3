package exp

// The reproduction scorecard: one programmatic pass/fail acceptance check
// per claim of the paper. Where the tables of E1–E18 present measurements
// for a human reader, the scorecard distils each claim into a single
// machine-checkable criterion, so `cmd/experiments -verify` (and the test
// suite) can assert that the reproduction still holds after any change to
// the implementation.
//
// Acceptance criteria are deliberately loose (factor-2-ish margins): they
// must tolerate trial noise at small scale while still failing loudly if
// an algorithm or the simulator regresses.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gossip"
	"repro/internal/lower"
	"repro/internal/pipeline"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/structure"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// Check is one acceptance criterion tied to a claim of the paper.
type Check struct {
	ID     string // experiment id the check belongs to
	Claim  string // one-line version of the claim
	Pass   bool
	Detail string // measured numbers and the threshold applied
}

// Scorecard evaluates every acceptance check at the given configuration
// and returns them in experiment order. It is independent of the table
// renderers: each check recomputes the minimal sufficient measurement.
func Scorecard(cfg Config) []Check {
	var out []Check
	add := func(id, claim string, pass bool, format string, args ...interface{}) {
		out = append(out, Check{ID: id, Claim: claim, Pass: pass, Detail: fmt.Sprintf(format, args...)})
	}

	trials := cfg.trials(3)

	// --- E1/E2: centralized upper bound shape ---------------------------
	{
		var ratios []float64
		for i, n := range []int{1000, 4000} {
			d := 2 * math.Log(float64(n))
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*17, func(rng *xrand.Rand) float64 {
				g := sampleConnected(n, d, rng)
				return float64(centralizedRounds(g, d, rng.Uint64()))
			})
			ratios = append(ratios, stats.Mean(samples)/core.CentralizedBound(n, d))
		}
		spread := ratios[1] / ratios[0]
		pass := ratios[0] > 0.5 && ratios[0] < 8 && spread > 0.5 && spread < 2
		add("E1", "centralized rounds = Θ(ln n/ln d + ln d)", pass,
			"ratio@1k=%.2f ratio@4k=%.2f spread=%.2f (need ratios in (0.5,8), spread in (0.5,2))",
			ratios[0], ratios[1], spread)
	}

	// --- E3: centralized lower bound ------------------------------------
	{
		n := 1000
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 31)
		g := sampleConnected(n, d, rng)
		_, res, err := lower.GreedyAdaptiveSchedule(g, 0, 100000)
		pass := err == nil && res.Completed &&
			float64(res.Rounds) >= 0.5*core.CentralizedBound(n, d) &&
			res.Rounds >= lower.Eccentricity(g, 0)
		add("E3", "even the greedy adversary needs Ω(ln n/ln d + ln d)", pass,
			"greedy=%d bound=%.1f ecc=%d", res.Rounds, core.CentralizedBound(n, d), lower.Eccentricity(g, 0))
	}

	// --- E4: distributed upper bound ------------------------------------
	{
		var ratios []float64
		for i, n := range []int{1000, 4000} {
			d := 2 * math.Log(float64(n))
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*41, func(rng *xrand.Rand) float64 {
				g := sampleConnected(n, d, rng)
				return float64(distributedRounds(g, d, rng))
			})
			ratios = append(ratios, stats.Mean(samples)/core.DistributedBound(n))
		}
		spread := ratios[1] / ratios[0]
		pass := ratios[0] > 0.5 && ratios[0] < 10 && spread > 0.5 && spread < 2
		add("E4", "distributed rounds = Θ(ln n)", pass,
			"ratio@1k=%.2f ratio@4k=%.2f spread=%.2f", ratios[0], ratios[1], spread)
	}

	// --- E5: the paper's protocol beats Decay ---------------------------
	{
		n := 2000
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 53)
		g := sampleConnected(n, d, rng)
		// Both protocols run five trials on the same graph through one
		// scalar session each, which reuses its engine from trial to trial.
		timed := func(p radio.Protocol, seed uint64) []float64 {
			out := make([]int, 5)
			sess := exec.Open(&exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: 8 * n, ForceScalar: true})
			// An unobserved batch under a background context cannot fail.
			_ = sess.RunSeeds(context.Background(), sweep.Seeds(5, seed), out)
			return stats.Ints(out)
		}
		paper := timed(core.NewDistributedProtocol(n, d), cfg.Seed+54)
		decay := timed(protocols.NewDecay(n), cfg.Seed+55)
		pass := stats.Median(paper) <= stats.Median(decay)
		add("E5", "paper protocol ≤ Decay on G(n,p)", pass,
			"paper median=%.0f decay median=%.0f", stats.Median(paper), stats.Median(decay))
	}

	// --- E6: oblivious sequences need Ω(ln n) ---------------------------
	{
		n := 1000
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 61)
		g := sampleConnected(n, d, rng)
		best, _ := lower.OptimizeSequence(g, 0, d, core.MaxRoundsFor(n), 3, rng)
		pass := best >= 0.5*math.Log(float64(n)) && best <= float64(core.MaxRoundsFor(n))
		add("E6", "best oblivious sequence ≥ Ω(ln n)", pass,
			"best=%.1f ln n=%.1f", best, math.Log(float64(n)))
	}

	// --- E7: Lemma 3 layer structure ------------------------------------
	{
		n := 4000
		d := 3 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 71)
		g := sampleConnected(n, d, rng)
		prof := structure.AnalyzeLayers(g, 0)
		big := prof.BigLayerCount(n, d)
		growthOK := len(prof.Layers) > 2 &&
			float64(prof.Layers[1].Size) > d/3 && float64(prof.Layers[1].Size) < 3*d
		pass := big <= 6 && growthOK
		add("E7", "layers grow ~d^i; O(1) big layers", pass,
			"|T_1|=%d (d=%.1f), big layers=%d (need <=6)", prof.Layers[1].Size, d, big)
	}

	// --- E8: Lemma 4 + Proposition 2 ------------------------------------
	{
		n := 4000
		d := 24.0
		rng := xrand.New(cfg.Seed + 83)
		g := gen.Gnp(n, gen.PForDegree(n, d), rng)
		x, y := halves(n)
		c := structure.RandomizedCover(g, x, y, 1/d, rng)
		coverOK := c.CoveredFraction() > 0.15
		cover := structure.MinimalCover(g, x, y[:40])
		m := structure.MatchingFromMinimalCover(g, cover, y[:40])
		prop2OK := m.Size() == len(cover)
		add("E8", "1/d covers Ω(|Y|); Prop 2 equality", coverOK && prop2OK,
			"cover fraction=%.2f (need >0.15); |cover|=%d |matching|=%d", c.CoveredFraction(), len(cover), m.Size())
	}

	// --- E9: dense regime -----------------------------------------------
	{
		n := 500
		var ratios []float64
		for i, f := range []float64{0.5, 0.05} {
			samples := sweep.Run(trials, cfg.Seed+uint64(i)*97, func(rng *xrand.Rand) float64 {
				g := gen.DensifiedComplement(n, f, rng)
				return float64(centralizedRounds(g, (1-f)*float64(n), rng.Uint64()))
			})
			ratios = append(ratios, stats.Mean(samples)/core.DenseBound(n, f))
		}
		spread := math.Max(ratios[0], ratios[1]) / math.Min(ratios[0], ratios[1])
		pass := spread < 4 && ratios[0] > 0.2 && ratios[1] > 0.2
		add("E9", "dense regime rounds = Θ(ln n/ln(1/f))", pass,
			"ratios %.2f / %.2f, spread %.2f (need <4)", ratios[0], ratios[1], spread)
	}

	// --- E12: ablation sanity — literal pool stalls ---------------------
	{
		n := 2000
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 101)
		g := sampleConnected(n, d, rng)
		lit := core.NewRestrictedPoolProtocol(n, d)
		lit.SafetyRound = 0
		litTime := broadcastTime(g, lit, core.MaxRoundsFor(n), rng)
		defTime := broadcastTime(g, core.NewDistributedProtocol(n, d), core.MaxRoundsFor(n), rng)
		pass := defTime <= core.MaxRoundsFor(n) && litTime > defTime
		add("E12", "literal pool strands; proof pool completes", pass,
			"literal=%d default=%d budget=%d", litTime, defTime, core.MaxRoundsFor(n))
	}

	// --- E13: gossiping beats round robin --------------------------------
	{
		n := 400
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 107)
		g := sampleConnected(n, d, rng)
		budget := 100 * n
		phased := gossip.Time(g, gossip.NewPhased(n, d), budget, rng.Derive(1))
		rr := gossip.Time(g, &protocols.RoundRobin{N: n}, budget, rng.Derive(2))
		pass := phased <= budget && rr <= budget && phased < rr
		add("E13", "phased gossip beats collision-free round robin", pass,
			"phased=%d round-robin=%d", phased, rr)
	}

	// --- E19: knowledge-free CD backoff completes ------------------------
	{
		n := 1000
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 109)
		g := sampleConnected(n, d, rng)
		budget := 40 * core.MaxRoundsFor(n)
		res := runCD(g, protocols.NewBackoff(n), budget, rng)
		decay := broadcastTime(g, protocols.NewDecay(n), budget, rng.Derive(3))
		pass := res.Completed && res.Rounds < budget && decay <= budget
		add("E19", "knowledge-free AIMD backoff completes under CD", pass,
			"backoff=%d decay=%d budget=%d", res.Rounds, decay, budget)
	}

	// --- E20: rarest-first pipelining is ~linear in k --------------------
	{
		n := 400
		d := 2 * math.Log(float64(n))
		rng := xrand.New(cfg.Seed + 127)
		g := sampleConnected(n, d, rng)
		p := pipeProtocol{1 / d}
		budget := 200000
		t1 := pipeline.Time(g, 0, 1, p, pipeline.RarestFirst, budget, rng.Derive(1))
		t8 := pipeline.Time(g, 0, 8, p, pipeline.RarestFirst, budget, rng.Derive(2))
		pass := t1 <= budget && t8 <= budget && t8 <= 4*8*t1
		add("E20", "rarest-first k-broadcast is ~linear in k", pass,
			"T(1)=%d T(8)=%d (need T(8) <= 32·T(1))", t1, t8)
	}

	// --- E14: greedy adversary near OPT ---------------------------------
	{
		rng := xrand.New(cfg.Seed + 113)
		worstGap := 0
		checked := 0
		for trial := 0; trial < 30 && checked < 6; trial++ {
			g, _, ok := gen.ConnectedGnp(10, 0.4, rng, 10)
			if !ok {
				continue
			}
			checked++
			opt, err := lower.OptimalBroadcastTime(g, 0)
			if err != nil {
				continue
			}
			_, res, err := lower.GreedyAdaptiveSchedule(g, 0, 1000)
			if err != nil || !res.Completed {
				continue
			}
			if gap := res.Rounds - opt; gap > worstGap {
				worstGap = gap
			}
		}
		pass := checked >= 4 && worstGap <= 2
		add("E14", "greedy adversary within +2 of exact OPT", pass,
			"instances=%d worst gap=%d", checked, worstGap)
	}
	return out
}

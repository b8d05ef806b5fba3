package exp

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// sampleConnected draws a connected G(n,p) with expected degree d, retrying
// as needed; it panics only if no connected sample appears in 100 draws,
// which for the degree regimes used here indicates a misconfigured
// experiment rather than bad luck.
func sampleConnected(n int, d float64, rng *xrand.Rand) *graph.Graph {
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	if !ok {
		panic("exp: could not sample a connected graph; degree too low for n")
	}
	return g
}

// centralizedRounds builds and replays the Theorem 5 schedule once and
// returns its length in rounds.
func centralizedRounds(g *graph.Graph, d float64, seed uint64) int {
	sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(seed))
	if err != nil {
		panic(err)
	}
	res, err := replay(g, sched)
	if err != nil {
		panic(err)
	}
	if !res.Completed {
		panic("exp: centralized schedule incomplete")
	}
	return res.Rounds
}

// distributedRounds runs the Theorem 7 protocol once and returns the
// completion round (sentinel maxRounds+1 if incomplete).
func distributedRounds(g *graph.Graph, d float64, rng *xrand.Rand) int {
	return broadcastTime(g, core.NewDistributedProtocol(g.N(), d), core.MaxRoundsFor(g.N()), rng)
}

// broadcastTime runs p once from node 0 on a fresh engine and returns the
// completion round (sentinel maxRounds+1 if incomplete). A protocol run
// under a background context cannot fail, here or in runProtocol.
func broadcastTime(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand) int {
	r, _ := exec.Time(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds}, rng)
	return r
}

// runProtocol runs p once from the given sources on a fresh engine.
func runProtocol(g *graph.Graph, sources []int32, p radio.Protocol, maxRounds int, rng *xrand.Rand) radio.Result {
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: sources, Protocol: p, MaxRounds: maxRounds}, rng)
	return res
}

// runCD runs the CD-model protocol p once from node 0 on a fresh engine.
func runCD(g *graph.Graph, p radio.FeedbackProtocol, maxRounds int, rng *xrand.Rand) radio.Result {
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Feedback: p, MaxRounds: maxRounds}, rng)
	return res
}

// replay replays s from node 0 on a fresh strict engine.
func replay(g *graph.Graph, s *radio.Schedule) (radio.Result, error) {
	return exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: s}, nil)
}

// runPreset runs campaign preset id in memory at cfg's scale, seed and
// trial override; the preset sets the default trial count.
func runPreset(id string, cfg Config) *campaign.Report {
	spec, err := campaign.Preset(id, cfg.Scale.String(), cfg.Seed, cfg.Trials)
	if err != nil {
		panic(err)
	}
	return runSpec(spec)
}

// runSpec runs spec in memory and panics if any point failed a trial or
// did not finish, as sampleConnected does: a short mean printed as if
// complete would hide a misconfigured experiment.
func runSpec(spec *campaign.Spec) *campaign.Report {
	r, err := campaign.Run(spec, campaign.Options{})
	if err != nil {
		panic(err)
	}
	for _, p := range r.Points {
		if p.Failures > 0 || !p.Complete {
			panic(fmt.Sprintf("exp: campaign %s point %s: %d of %d trials failed, complete=%v",
				spec.Name, p.ID, p.Failures, p.Consumed, p.Complete))
		}
	}
	return r
}

// summarizeRounds compacts samples into (mean, p10, p90).
func summarizeRounds(samples []float64) (mean, p10, p90 float64) {
	s := stats.Summarize(samples)
	return s.Mean, s.P10, s.P90
}

// median returns the median of integer samples.
func median(xs []int) float64 {
	return stats.Median(stats.Ints(xs))
}

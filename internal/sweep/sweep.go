// Package sweep runs experiment trials, fanning independent trials out to
// a worker pool and collecting per-configuration samples. Every trial gets
// a deterministic derived seed, so sweeps are reproducible regardless of
// scheduling order.
package sweep

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Trial is a single experiment execution: given a deterministic RNG it
// returns one scalar measurement.
type Trial func(rng *xrand.Rand) float64

// Seeds returns the per-trial seeds that Run derives from baseSeed:
// trial i uses xrand.New(baseSeed).DeriveSeed(i+1). The mapping is the
// repository-wide convention for fanning one base seed out to
// independent trials — the campaign runner and exec.Session.RunSeeds
// callers use it so the same base seed replays exactly the trials a
// sweep would run, regardless of worker count, interruption or resume
// order.
func Seeds(trials int, baseSeed uint64) []uint64 {
	if trials <= 0 {
		return nil
	}
	parent := xrand.New(baseSeed)
	out := make([]uint64, trials)
	for i := range out {
		out[i] = parent.DeriveSeed(uint64(i) + 1)
	}
	return out
}

// Run executes the trial `trials` times with seeds derived from baseSeed
// and returns the measurements ordered by trial index. Trials run
// concurrently on up to GOMAXPROCS goroutines; since each draws only
// from its own derived rng, the results do not depend on scheduling.
func Run(trials int, baseSeed uint64, trial Trial) []float64 {
	seeds := Seeds(trials, baseSeed)
	out := make([]float64, len(seeds))
	workers := min(runtime.GOMAXPROCS(0), trials)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = trial(xrand.New(seeds[i]))
			}
		}()
	}
	for i := range out {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// Sources runs p once from each of k sources drawn uniformly without
// replacement by rng.Sample and returns the per-source completion rounds
// (maxRounds+1 for incomplete runs) — the "for any u ∈ V" measurement
// of the paper's theorems. Source i's run draws from rng.Derive(i+1).
// k is clamped to [0, n]. The runs go through the execution layer on one
// pooled engine, re-aimed at each source.
func Sources(g *graph.Graph, k int, p radio.Protocol, maxRounds int, rng *xrand.Rand) []int {
	k = min(max(k, 0), g.N())
	sources := rng.Sample(g.N(), k)
	out := make([]int, len(sources))
	req := &exec.Request{Graph: g, Sources: make([]int32, 1), Protocol: p, MaxRounds: maxRounds, Pool: true}
	for i, s := range sources {
		req.Sources[0] = s
		out[i], _ = exec.Time(context.Background(), req, rng.Derive(uint64(i)+1))
	}
	return out
}

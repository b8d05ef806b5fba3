package repro

// RunBatch: the facade entry to the bit-parallel lane engine. One call
// runs many independent Monte-Carlo trials of the same broadcast
// configuration — same graph, same sources, same protocol — and returns
// the per-trial completion rounds, simulating 64 trials per machine word
// per edge pass (internal/lanes) whenever the protocol declares a fully
// uniform round schedule, and falling back to scalar engine trials
// otherwise.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sweep"
)

// RunBatch simulates `trials` independent broadcasts of a message from
// src on g and returns each trial's completion round, in trial order; a
// trial that does not finish within the round budget reports budget+1
// (BroadcastTime's sentinel), so Completed is rounds[i] <= budget.
//
// Trial i draws its randomness from a private stream derived as
// sweep.Seeds(trials, seed)[i] from the WithSeed base (default 1) — the
// repository-wide trial-seed convention — so results are deterministic
// and every trial is a pure function of its own derived seed: the batch
// is bitwise independent of lane width, block sharding, worker count and
// GOMAXPROCS. Protocols with a fully uniform schedule (the paper's
// distributed protocol, Decay, Aloha, Flood) run on the bit-parallel lane
// engine — a new randomness stream, distributionally identical to scalar
// trials of the same seeds but not bit-identical to them (the PR 3 stream
// policy); other protocols fall back to per-trial scalar runs.
//
// Supported options: WithDegree, WithProtocol, WithMaxRounds, WithSeed,
// WithSources, WithContext. WithSchedule, WithObserver, WithRand and
// WithPerNodeSampling are rejected with ErrConflictingOptions: schedules
// and observers are inherently scalar per-trial notions (use Run per
// trial), and a shared *Rand would make trials order-dependent — batch
// randomness must come from a derivable seed.
func RunBatch(g *Graph, src int32, trials int, opts ...Option) ([]int, error) {
	c := runConfig{}
	for _, o := range opts {
		o(&c)
	}
	switch {
	case c.schedule != nil:
		return nil, fmt.Errorf("%w: RunBatch does not take WithSchedule (schedules are single-trial; use Run)", ErrConflictingOptions)
	case c.obs != nil:
		return nil, fmt.Errorf("%w: RunBatch does not take WithObserver (observe single trials with Run)", ErrConflictingOptions)
	case c.rng != nil:
		return nil, fmt.Errorf("%w: RunBatch does not take WithRand; batch trial streams derive from WithSeed", ErrConflictingOptions)
	case c.perNode:
		return nil, fmt.Errorf("%w: RunBatch does not take WithPerNodeSampling (the per-node stream is single-trial; use Run)", ErrConflictingOptions)
	case c.protocol != nil && c.hasDegree:
		return nil, fmt.Errorf("%w: WithProtocol and WithDegree are mutually exclusive", ErrConflictingOptions)
	case c.hasMax && c.maxRounds < 0:
		return nil, fmt.Errorf("%w: negative round budget %d", ErrConflictingOptions, c.maxRounds)
	}
	sources := append([]int32{src}, c.extraSrc...)
	for _, s := range sources {
		if s < 0 || int(s) >= g.N() {
			return nil, fmt.Errorf("%w: source %d outside [0,%d)", ErrNoSuchSource, s, g.N())
		}
	}
	if trials <= 0 {
		return []int{}, nil
	}
	seed := uint64(1)
	if c.hasSeed {
		seed = c.seed
	}
	p := c.protocol
	if p == nil {
		d := c.degree
		if !c.hasDegree {
			d = meanDegree(g)
		}
		p = core.NewDistributedProtocol(g.N(), d)
	}
	maxRounds := c.maxRounds
	if !c.hasMax {
		maxRounds = core.MaxRoundsFor(g.N())
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	seeds := sweep.Seeds(trials, seed)
	out := make([]int, trials)

	// Backend selection lives in the unified execution layer: uniform
	// protocols run the lane engine, everything else falls back to
	// per-seed scalar trials on a worker pool. Values stay pure
	// functions of the trial seeds either way.
	if _, err := exec.RunSeeds(ctx, &exec.Request{
		Graph:     g,
		Sources:   sources,
		Protocol:  p,
		MaxRounds: maxRounds,
	}, seeds, out); err != nil {
		return nil, err
	}
	return out, nil
}

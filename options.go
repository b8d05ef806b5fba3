package repro

// Options-based facade: Run is the single entry point for broadcast
// simulations — protocol runs, schedule replays, multi-source and
// observed runs are all options of one call, and every one dispatches
// through the unified execution layer (internal/exec). The per-node
// randomness stream of the removed positional wrappers (Broadcast,
// RunProtocol, BroadcastMulti) is Run(..., WithPerNodeSampling()),
// pinned bit-for-bit by deprecated_stream_test.go.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// Option configures a Run call.
type Option func(*runConfig)

type runConfig struct {
	ctx       context.Context
	degree    float64
	hasDegree bool
	protocol  Protocol
	schedule  *Schedule
	maxRounds int
	hasMax    bool
	rng       *Rand
	seed      uint64
	hasSeed   bool
	obs       Observer
	extraSrc  []int32
	perNode   bool
	engine    *Engine
}

// WithDegree sizes the paper's distributed protocol (Theorem 7) for
// expected average degree d — the parametrisation d = pn of G(n, d/n).
// Mutually exclusive with WithProtocol and WithSchedule. When none of the
// three is given, Run uses the graph's mean degree.
func WithDegree(d float64) Option {
	return func(c *runConfig) { c.degree, c.hasDegree = d, true }
}

// WithProtocol runs an arbitrary distributed protocol instead of the
// paper's default. Mutually exclusive with WithDegree and WithSchedule.
func WithProtocol(p Protocol) Option {
	return func(c *runConfig) { c.protocol = p }
}

// WithSchedule replays an explicit centralized schedule (e.g. from
// BuildSchedule) instead of running a distributed protocol. The schedule
// length is the round budget; WithMaxRounds, WithDegree and WithProtocol
// do not apply.
func WithSchedule(s *Schedule) Option {
	return func(c *runConfig) { c.schedule = s }
}

// WithMaxRounds caps the number of protocol rounds (0 runs no rounds at
// all). The default is MaxRounds(g.N()), a generous budget beyond the
// Θ(ln n) bound.
func WithMaxRounds(m int) Option {
	return func(c *runConfig) { c.maxRounds, c.hasMax = m, true }
}

// WithRand supplies the random source driving the protocol's choices.
// Mutually exclusive with WithSeed.
func WithRand(rng *Rand) Option {
	return func(c *runConfig) { c.rng = rng }
}

// WithSeed is WithRand(NewRand(seed)): a fresh deterministic stream per
// call, so the same seed always reproduces the same run. The default is
// WithSeed(1).
func WithSeed(seed uint64) Option {
	return func(c *runConfig) { c.seed, c.hasSeed = seed, true }
}

// WithObserver attaches a round-level trace observer to the run: it
// receives a BeginRun, one RoundRecord per executed round, and an EndRun.
// Observers consume no randomness, so an observed run is bit-for-bit
// identical to an unobserved one. Compose several with MultiObserver.
func WithObserver(obs Observer) Option {
	return func(c *runConfig) { c.obs = obs }
}

// WithSources adds further initially informed nodes beside src — the
// multi-source broadcast. Duplicates are tolerated.
func WithSources(sources ...int32) Option {
	return func(c *runConfig) { c.extraSrc = append(c.extraSrc, sources...) }
}

// WithContext attaches a context to the run: the engine checks for
// cancellation between rounds and, once the context is canceled, stops and
// returns the partial Result together with an error wrapping ErrCanceled
// and the context's cause. The check consumes no randomness, so a run
// under an uncanceled context is bit-for-bit identical to one without.
// WithContext(ctx) is equivalent to calling RunContext(ctx, ...); when
// both are given, the option wins.
func WithContext(ctx context.Context) Option {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithPerNodeSampling disables the sampled-transmitter fast path: the
// protocol loop asks the protocol for a per-node transmit decision for
// every informed node each round, even when the protocol declares uniform
// rounds (radio.UniformProtocol). By default Run uses the O(k) binomial
// cohort sampling fast path whenever the protocol supports it — the same
// transmitter-set distribution through a much shorter randomness stream.
// Use this option to reproduce pre-fast-path runs bit-for-bit at a fixed
// seed, or to exercise a custom protocol's Transmit method on every node.
func WithPerNodeSampling() Option {
	return func(c *runConfig) { c.perNode = true }
}

// WithEngine runs the simulation on a caller-supplied engine instead of
// allocating a fresh one — the engine-pooling path of long-running
// servers, which would otherwise pay an O(n) engine allocation per
// request. The engine must have been built for the same graph g
// (ErrConflictingOptions otherwise); its sources, observer and sampling
// mode are re-initialised from this call's own options, so a pooled
// engine run is bit-for-bit identical to a fresh-engine run with the
// same options. Schedule replays (WithSchedule) run on it too, under
// the engine's transmitter policy.
//
// To keep the steady state free of O(n) allocations, the returned
// Result's InformedAt aliases an engine-owned buffer that the engine's
// NEXT run overwrites — copy it if it must outlive the engine's reuse
// cycle.
func WithEngine(e *Engine) Option {
	return func(c *runConfig) { c.engine = e }
}

// Run simulates one broadcast of a message from src on g under the radio
// model and returns the result. With no options it runs the paper's
// distributed protocol (Theorem 7) sized for the graph's mean degree,
// with a fresh seed-1 random stream and a generous round budget:
//
//	res, err := repro.Run(g, 0, repro.WithDegree(25))
//
// Options select the protocol or schedule, the round budget, the
// randomness and an observer; see the With* functions. Run only returns
// an error for invalid option combinations or a schedule that violates
// the radio model (an uninformed transmitter); protocol runs cannot fail
// — an exhausted round budget is reported via Result.Completed.
//
// Protocols that declare uniform rounds (radio.UniformProtocol — the
// paper's protocol does) are simulated through the sampled-transmitter
// fast path: O(k) binomial cohort sampling per round instead of one coin
// flip per informed node. The transmitter-set distribution is identical,
// but the randomness stream is shorter, so runs at a fixed seed differ
// bit-for-bit from the per-node path; pass WithPerNodeSampling() to
// reproduce pre-fast-path runs exactly.
func Run(g *Graph, src int32, opts ...Option) (Result, error) {
	return RunContext(context.Background(), g, src, opts...)
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// between rounds and, once it is canceled, returns the partial Result —
// reflecting exactly the rounds executed so far — together with an error
// for which errors.Is reports ErrCanceled as well as the context's own
// cause (context.Canceled or context.DeadlineExceeded). The cancellation
// check consumes no randomness, so with an uncanceled context RunContext
// is bit-for-bit identical to Run; Run itself is
// RunContext(context.Background(), ...).
//
// Errors are classified by the exported sentinels (see errors.go):
// invalid option combinations wrap ErrConflictingOptions, out-of-range
// sources wrap ErrNoSuchSource, schedule violations wrap
// ErrScheduleMismatch.
func RunContext(ctx context.Context, g *Graph, src int32, opts ...Option) (Result, error) {
	c := runConfig{ctx: ctx}
	for _, o := range opts {
		o(&c)
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	switch {
	case c.protocol != nil && c.hasDegree:
		return Result{}, fmt.Errorf("%w: WithProtocol and WithDegree are mutually exclusive", ErrConflictingOptions)
	case c.schedule != nil && (c.protocol != nil || c.hasDegree):
		return Result{}, fmt.Errorf("%w: WithSchedule excludes WithProtocol/WithDegree", ErrConflictingOptions)
	case c.schedule != nil && c.hasMax:
		return Result{}, fmt.Errorf("%w: WithSchedule excludes WithMaxRounds (the schedule length is the budget)", ErrConflictingOptions)
	case c.rng != nil && c.hasSeed:
		return Result{}, fmt.Errorf("%w: WithRand and WithSeed are mutually exclusive", ErrConflictingOptions)
	case c.hasMax && c.maxRounds < 0:
		return Result{}, fmt.Errorf("%w: negative round budget %d", ErrConflictingOptions, c.maxRounds)
	case c.engine != nil && c.engine.Graph() != g:
		return Result{}, fmt.Errorf("%w: WithEngine engine was built for a different graph", ErrConflictingOptions)
	}

	sources := append([]int32{src}, c.extraSrc...)
	for _, s := range sources {
		if s < 0 || int(s) >= g.N() {
			return Result{}, fmt.Errorf("%w: source %d outside [0,%d)", ErrNoSuchSource, s, g.N())
		}
	}
	rng := c.rng
	if rng == nil {
		seed := uint64(1)
		if c.hasSeed {
			seed = c.seed
		}
		rng = NewRand(seed)
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
	// Dispatch through the unified execution layer (internal/exec): it
	// owns engine construction and WithEngine re-initialisation, so a
	// pooled- or caller-engine run stays bit-identical to a fresh one. A
	// schedule replay ignores the protocol, budget and rng.
	return exec.Run(c.ctx, &exec.Request{
		Graph:     g,
		Sources:   sources,
		Protocol:  p,
		Schedule:  c.schedule,
		MaxRounds: maxRounds,
		PerNode:   c.perNode,
		Observer:  c.obs,
		Engine:    c.engine,
	}, rng)
}

// meanDegree returns 2m/n, the graph's empirical average degree (the
// default protocol sizing when no WithDegree is given).
func meanDegree(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

package campaign

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Runner executes the trials of one grid point. A runner is created once
// per (worker, point) pair and may cache expensive state — graphs,
// engines, scratch buffers — between trials, the sweep.RunWith reuse
// contract: a trial must reset any result-relevant state at its start and
// draw randomness exclusively from the per-trial rng, so its result is a
// pure function of the seed, independent of which worker ran it or what
// ran before.
type Runner interface {
	// RunTrial executes one trial: value is the scalar measurement, ok
	// reports trial-level success (e.g. the broadcast completed within
	// budget).
	RunTrial(rng *xrand.Rand) (value float64, ok bool)
}

// ContextRunner is an optional Runner capability: a runner implements it
// to support cooperative mid-trial cancellation. When a campaign runs
// with Options.Context, workers call RunTrialContext instead of RunTrial;
// a canceled trial must return an error wrapping radio.ErrCanceled, and
// the worker then discards it (recording a partially-run trial would make
// checkpoints depend on cancellation timing). An uncanceled
// RunTrialContext must return exactly RunTrial's (value, ok) for the same
// rng — the cancellation check consumes no randomness.
type ContextRunner interface {
	Runner
	RunTrialContext(ctx context.Context, rng *xrand.Rand) (value float64, ok bool, err error)
}

// BatchRunner is an optional Runner capability: a runner implements it to
// execute a block of trials in one call — the bit-parallel lane engine's
// entry point. seeds[i] is trial i's derived seed and values[i]/oks[i]
// receive its result; len(seeds) never exceeds lanes.Width. Each trial's
// result must be a pure function of its own seed (lane purity), so a
// batched campaign records byte-identical reports no matter how trials
// are blocked — but batch results come from the lane engine's randomness
// stream, which is distributionally identical to, not bit-identical to,
// the scalar RunTrial stream; checkpoints record which engine produced
// them (Manifest.Engine) and refuse to mix the two.
type BatchRunner interface {
	Runner
	RunTrialBatch(ctx context.Context, seeds []uint64, values []float64, oks []bool) error
}

// batchKinds are the built-in trial kinds the lane engine accelerates:
// randomized uniform-schedule protocols measured on a fixed graph,
// observed per lane for collision-rate.
var batchKinds = map[string]bool{"distributed": true, "decay": true, "aloha": true, "collision-rate": true}

// batchablePoint reports whether a point's trials may be dispatched in
// lane blocks: the kind must be lane-capable and the graph fixed (a
// per-trial resampled graph leaves nothing for a block to share).
func batchablePoint(p PointSpec) bool {
	return p.Trial.FixedGraph && batchKinds[p.Trial.Kind]
}

// laneSensitive reports whether any point of the spec would be lane
// batched: only then does the engine choice (scalar vs lanes) change
// recorded sample values, so only then do checkpoints refuse an engine
// mismatch on resume or merge.
func (s *Spec) laneSensitive() bool {
	for _, p := range s.Points {
		if batchablePoint(p) {
			return true
		}
	}
	return false
}

// NewRunnerFunc builds a Runner for a point. pointSeed is the point's
// derived base seed; runners that pin state to the point (FixedGraph)
// must derive it from pointSeed with ids outside 1..Trials (the trial
// ids), conventionally id 0, so every worker builds identical state.
type NewRunnerFunc func(p PointSpec, pointSeed uint64) (Runner, error)

var (
	kindMu sync.RWMutex
	kinds  = map[string]NewRunnerFunc{}
)

// RegisterKind registers a trial kind. Registering a duplicate name
// panics. Extensions and tests may register their own kinds before
// building specs that reference them.
func RegisterKind(name string, fn NewRunnerFunc) {
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic("campaign: duplicate trial kind " + name)
	}
	kinds[name] = fn
}

// KindRegistered reports whether a trial kind is registered.
func KindRegistered(name string) bool {
	kindMu.RLock()
	defer kindMu.RUnlock()
	_, ok := kinds[name]
	return ok
}

// newRunner builds the Runner for a point.
func newRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	kindMu.RLock()
	fn, ok := kinds[p.Trial.Kind]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("campaign: unknown trial kind %q", p.Trial.Kind)
	}
	return fn(p, pointSeed)
}

func init() {
	RegisterKind("distributed", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return core.NewDistributedProtocol(t.N, t.D)
	}))
	RegisterKind("decay", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewDecay(t.N)
	}))
	RegisterKind("aloha", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewAloha(t.D)
	}))
	RegisterKind("centralized", newCentralizedRunner)
	RegisterKind("collision-rate", newCollisionRateRunner)
}

// maxRounds returns the effective round budget of a trial spec.
func (t TrialSpec) maxRounds() int {
	if t.MaxRounds > 0 {
		return t.MaxRounds
	}
	return core.MaxRoundsFor(t.N)
}

// graphSeedID is the Derive id reserved for the FixedGraph sample; trial
// seeds use ids 1..Trials (sweep.Seeds), so 0 is free.
const graphSeedID = 0

// sampleConnected draws a connected G(n, d/n), panicking after 100 failed
// attempts — for the degree regimes campaigns run this indicates a
// misconfigured point, and the panic is captured by the pool's fault
// tolerance and recorded as a failed sample.
func sampleConnected(n int, d float64, rng *xrand.Rand) *graph.Graph {
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	if !ok {
		panic(fmt.Sprintf("campaign: no connected G(n=%d, d=%.2f) in 100 draws; degree too low", n, d))
	}
	return g
}

// protocolRunner measures the completion round of a randomized protocol:
// value is the round the broadcast completed (maxRounds+1 if it did not),
// ok reports completion. With FixedGraph the graph is sampled once per
// worker from the point seed and pinned in an exec.Session, which owns
// the engines (scalar engine reset per trial, lane engine built lazily
// on the first batched block); otherwise each trial samples a fresh
// connected G(n,p) from its own rng and dispatches one-shot.
type protocolRunner struct {
	spec      TrialSpec
	proto     radio.Protocol
	maxRounds int
	sess      *exec.Session // non-nil iff FixedGraph
	batchOut  []int
}

func newProtocolKind(proto func(TrialSpec) radio.Protocol) NewRunnerFunc {
	return func(p PointSpec, pointSeed uint64) (Runner, error) {
		r := &protocolRunner{spec: p.Trial, proto: proto(p.Trial), maxRounds: p.Trial.maxRounds()}
		if p.Trial.FixedGraph {
			g := sampleConnected(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
			r.sess = exec.Open(&exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds})
		}
		return r, nil
	}
}

// oneShot is the request for a trial on a freshly sampled graph.
func (r *protocolRunner) oneShot(g *graph.Graph) *exec.Request {
	return &exec.Request{Graph: g, Sources: []int32{0}, Protocol: r.proto, MaxRounds: r.maxRounds}
}

func (r *protocolRunner) RunTrial(rng *xrand.Rand) (float64, bool) {
	var rounds int
	if r.sess != nil {
		rounds, _ = r.sess.Time(context.Background(), rng)
	} else {
		g := sampleConnected(r.spec.N, r.spec.D, rng)
		rounds, _ = exec.Time(context.Background(), r.oneShot(g), rng)
	}
	return float64(rounds), rounds <= r.maxRounds
}

// RunTrialContext implements ContextRunner: the engine's round loop checks
// ctx between rounds, so a campaign shutdown cancels the trial mid-run
// instead of waiting out the round budget. Uncanceled, it is bit-identical
// to RunTrial (the check consumes no randomness).
func (r *protocolRunner) RunTrialContext(ctx context.Context, rng *xrand.Rand) (float64, bool, error) {
	var rounds int
	var err error
	if r.sess != nil {
		rounds, err = r.sess.Time(ctx, rng)
	} else {
		if err := ctx.Err(); err != nil {
			return 0, false, radio.Canceled(ctx)
		}
		g := sampleConnected(r.spec.N, r.spec.D, rng)
		rounds, err = exec.Time(ctx, r.oneShot(g), rng)
	}
	if err != nil {
		return 0, false, err
	}
	return float64(rounds), rounds <= r.maxRounds, nil
}

// RunTrialBatch implements BatchRunner: the session advances every
// trial of the block through the point's fixed graph simultaneously on
// the lane engine, or falls back to per-seed scalar trials (identical
// to single dispatch) when the protocol declared no uniform schedule.
// The non-fixed-graph guard stays here — the work list only batches
// batchablePoint points, so it is a guard, not a steady state.
func (r *protocolRunner) RunTrialBatch(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	if r.sess == nil {
		for i, seed := range seeds {
			v, ok, err := r.RunTrialContext(ctx, xrand.New(seed))
			if err != nil {
				return err
			}
			values[i], oks[i] = v, ok
		}
		return nil
	}
	if r.batchOut == nil {
		r.batchOut = make([]int, exec.Width)
	}
	out := r.batchOut[:len(seeds)]
	if err := r.sess.RunSeeds(ctx, seeds, out); err != nil {
		return err
	}
	for i, rounds := range out {
		values[i] = float64(rounds)
		oks[i] = rounds <= r.maxRounds
	}
	return nil
}

// centralizedRunner measures the replayed length of the Theorem 5
// centralized schedule: value is the executed rounds, ok reports
// completion. Each trial samples a fresh graph and builds a fresh
// schedule seeded from the trial rng; with FixedGraph the graph is pinned
// to the point seed and only the schedule seed varies per trial (a
// fixed-graph fixed-schedule replay would be the same deterministic
// number every trial).
type centralizedRunner struct {
	spec  TrialSpec
	fixed *graph.Graph // non-nil iff FixedGraph
}

func newCentralizedRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	r := &centralizedRunner{spec: p.Trial}
	if p.Trial.FixedGraph {
		r.fixed = sampleConnected(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
	}
	return r, nil
}

func (r *centralizedRunner) RunTrial(rng *xrand.Rand) (float64, bool) {
	g := r.fixed
	if g == nil {
		g = sampleConnected(r.spec.N, r.spec.D, rng)
	}
	sched, _, err := core.BuildCentralizedSchedule(g, 0, r.spec.D, core.DefaultCentralizedConfig(rng.Uint64()))
	if err != nil {
		panic(fmt.Sprintf("campaign: building centralized schedule: %v", err))
	}
	// Schedule replay is deterministic (no rng): the schedule backend.
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil {
		panic(fmt.Sprintf("campaign: replaying centralized schedule: %v", err))
	}
	return float64(res.Rounds), res.Completed
}

// collisionRateRunner measures the fraction of listener-rounds lost to
// collisions during one distributed broadcast (the E23-style aggregate):
// value = collisions / (successes + collisions + silent), ok reports
// completion. A per-runner trace.Counters observer is reset each trial;
// a lane block observes each trial through its own entry of batch.
type collisionRateRunner struct {
	spec      TrialSpec
	maxRounds int
	proto     radio.Protocol // hoisted: one construction per runner, not per trial
	counters  trace.Counters
	sess      *exec.Session // non-nil iff FixedGraph; engine observed by counters

	batch    [exec.Width]trace.Counters
	batchObs [exec.Width]trace.Observer // batchObs[i] = &batch[i]
	batchOut [exec.Width]int
}

func newCollisionRateRunner(p PointSpec, pointSeed uint64) (Runner, error) {
	r := &collisionRateRunner{
		spec:      p.Trial,
		maxRounds: p.Trial.maxRounds(),
		proto:     core.NewDistributedProtocol(p.Trial.N, p.Trial.D),
	}
	for i := range r.batch {
		r.batchObs[i] = &r.batch[i]
	}
	if p.Trial.FixedGraph {
		g := sampleConnected(p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
		r.sess = exec.Open(&exec.Request{
			Graph: g, Sources: []int32{0}, Protocol: r.proto,
			MaxRounds: r.maxRounds, Observer: &r.counters,
		})
	}
	return r, nil
}

// collisionRate is the measured value of one observed trial.
func collisionRate(c *trace.Counters) float64 {
	listens := c.Successes + c.Collisions + c.Silent
	if listens == 0 {
		return 0
	}
	return float64(c.Collisions) / float64(listens)
}

// RunTrialBatch implements BatchRunner: the session runs the block on
// the lane engine with one Counters observer per lane. Without a fixed
// graph there is nothing to share, and the trials run one by one.
func (r *collisionRateRunner) RunTrialBatch(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	if r.sess == nil {
		for i, seed := range seeds {
			values[i], oks[i] = r.RunTrial(xrand.New(seed))
		}
		return nil
	}
	k := len(seeds)
	clear(r.batch[:k])
	if err := r.sess.RunSeedsObserved(ctx, seeds, r.batchObs[:k], r.batchOut[:k]); err != nil {
		return err
	}
	for i, rounds := range r.batchOut[:k] {
		values[i] = collisionRate(&r.batch[i])
		oks[i] = rounds <= r.maxRounds
	}
	return nil
}

func (r *collisionRateRunner) RunTrial(rng *xrand.Rand) (float64, bool) {
	r.counters = trace.Counters{}
	// Session.Time drives the identical round stream a full protocol run does
	// but materialises no Result (whose InformedAt slice was an n-sized
	// allocation per trial); the counters observer carries the aggregate.
	var rounds int
	if r.sess != nil {
		rounds, _ = r.sess.Time(context.Background(), rng)
	} else {
		g := sampleConnected(r.spec.N, r.spec.D, rng)
		rounds, _ = exec.Time(context.Background(), &exec.Request{
			Graph: g, Sources: []int32{0}, Protocol: r.proto,
			MaxRounds: r.maxRounds, Observer: &r.counters,
		}, rng)
	}
	return collisionRate(&r.counters), rounds <= r.maxRounds
}

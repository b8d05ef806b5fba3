package campaign

import (
	"context"
	"errors"
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
// engines, scratch buffers — between calls, under one contract: a trial
// must reset any result-relevant state at its start and draw randomness
// exclusively from its own seed, so its result is a pure function of the
// seed, independent of which worker ran it, which block it shared or
// what ran before.
type Runner interface {
	// RunTrials executes one trial per seed: seeds[i] is trial i's derived
	// seed, values[i] receives its scalar measurement and oks[i] its
	// trial-level success (e.g. the broadcast completed within budget).
	// A block never holds more than exec.Width seeds; scalar points run
	// one-trial blocks. Cancellation is cooperative: a block canceled via
	// ctx returns an error wrapping radio.ErrCanceled and the worker drops
	// it whole (recording a partially-run trial would make checkpoints
	// depend on cancellation timing). An uncanceled ctx consumes no
	// randomness, so the results never depend on whether a campaign runs
	// with Options.Context.
	RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error
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
// lanes picks the engine, once for the runner's lifetime: it is true
// iff the run dispatches this point in lane blocks (Options.Lanes > 1
// and batchablePoint), and a lane-capable runner then runs its blocks on
// the bit-parallel lane engine, otherwise on the scalar engine. The two
// engines draw distributionally identical but different streams, which
// is why checkpoints record the engine (Manifest.Engine).
type NewRunnerFunc func(p PointSpec, pointSeed uint64, lanes bool) (Runner, error)

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
func newRunner(p PointSpec, pointSeed uint64, lanes bool) (Runner, error) {
	kindMu.RLock()
	fn, ok := kinds[p.Trial.Kind]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("campaign: unknown trial kind %q", p.Trial.Kind)
	}
	return fn(p, pointSeed, lanes)
}

func init() {
	distributed := func(t TrialSpec) radio.Protocol { return core.NewDistributedProtocol(t.N, t.D) }
	RegisterKind("distributed", newProtocolKind(distributed, false))
	RegisterKind("decay", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewDecay(t.N)
	}, false))
	RegisterKind("aloha", newProtocolKind(func(t TrialSpec) radio.Protocol {
		return protocols.NewAloha(t.D)
	}, false))
	RegisterKind("centralized", newCentralizedRunner)
	// collision-rate is the distributed protocol observed per trial.
	RegisterKind("collision-rate", newProtocolKind(distributed, true))
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

// sampleConnected draws a connected G(n, d/n) into s (fresh storage for a
// nil s), panicking after 100 failed attempts — for the degree regimes
// campaigns run this indicates a misconfigured point, and the panic is
// captured by the pool's fault tolerance and recorded as a failed sample.
func sampleConnected(s *gen.Scratch, n int, d float64, rng *xrand.Rand) *graph.Graph {
	g, _, ok := s.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	if !ok {
		panic(fmt.Sprintf("campaign: no connected G(n=%d, d=%.2f) in 100 draws; degree too low", n, d))
	}
	return g
}

// trialScratch is what a resampled trial draws its graph into and the
// scalar engine it runs that graph on, both reused from trial to trial.
// The engine is caller-owned (exec.Request.Engine), so exec's per-graph
// pool never sees the graph that the next draw rewrites.
type trialScratch struct {
	gen     gen.Scratch
	engine  *radio.Engine
	engineN int // the vertex count engine was built for
}

// scratchPool holds the idle trialScratch values. Campaigns build fresh
// runners, so only a process-level pool carries the storage from one
// trial, point or campaign to the next; like graph's edge pool it leaves
// idle storage to the collector. A trial checks a scratch out at its start
// and puts it back once the trial is over and nothing references the
// graph; a panicking trial abandons it. FixedGraph runners never take
// one: their graph stays pinned for the runner's life.
var scratchPool = &sync.Pool{New: func() any { return new(trialScratch) }}

// draw draws the trial's connected G(n, d/n) into s and returns it with
// the engine to run it on. The engine is rebuilt whenever n differs from
// the one it was built for; engine.Graph().N() cannot tell, since it reads
// the graph just drawn.
func (s *trialScratch) draw(t TrialSpec, rng *xrand.Rand) (*graph.Graph, *radio.Engine) {
	g := sampleConnected(&s.gen, t.N, t.D, rng)
	if s.engine == nil || s.engineN != t.N {
		s.engine, s.engineN = exec.NewEngine(g), t.N
	}
	return g, s.engine
}

// release detaches the trial's observer and returns s to the pool.
func (s *trialScratch) release() {
	s.engine.Attach(nil)
	scratchPool.Put(s)
}

// protocolRunner measures one broadcast of a randomized protocol per
// trial. Unobserved, value is the round the broadcast completed
// (maxRounds+1 if it did not); observed (collision-rate), value is the
// fraction of listener-rounds lost to collisions, read off one
// trace.Counters per trial. ok reports completion either way.
//
// With FixedGraph the graph is sampled once per runner from the point
// seed and pinned in an exec.Session, which owns the engines: a lane
// runner's blocks run on the lane engine, any other runner's seeds run
// one by one on the session's reset scalar engine. Without it each
// trial samples a fresh connected G(n,p) from its own stream and
// runs on the engine of a pooled trialScratch it was drawn into.
type protocolRunner struct {
	spec TrialSpec
	req  exec.Request  // resampled trials: Graph and Engine set per trial
	sess *exec.Session // non-nil iff FixedGraph
	rng  xrand.Rand    // reseeded per resampled trial
	out  [exec.Width]int

	// counters/obs are allocated for observed kinds only: obs[i] =
	// &counters[i] observes trial i of a block.
	counters *[exec.Width]trace.Counters
	obs      []trace.Observer
}

func newProtocolKind(proto func(TrialSpec) radio.Protocol, observed bool) NewRunnerFunc {
	return func(p PointSpec, pointSeed uint64, lanes bool) (Runner, error) {
		r := &protocolRunner{spec: p.Trial, req: exec.Request{
			Sources: []int32{0}, Protocol: proto(p.Trial), MaxRounds: p.Trial.maxRounds(),
		}}
		if observed {
			r.counters = new([exec.Width]trace.Counters)
			r.obs = make([]trace.Observer, exec.Width)
			for i := range r.obs {
				r.obs[i] = &r.counters[i]
			}
		}
		if p.Trial.FixedGraph {
			req := r.req
			req.Graph = sampleConnected(nil, p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
			req.ForceScalar = !lanes
			r.sess = exec.Open(&req)
		}
		return r, nil
	}
}

func (r *protocolRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	k := len(seeds)
	out := r.out[:k]
	var obs []trace.Observer
	if r.counters != nil {
		clear(r.counters[:k])
		obs = r.obs[:k]
	}
	if r.sess != nil {
		if err := r.sess.RunSeedsObserved(ctx, seeds, obs, out); err != nil {
			return err
		}
	} else {
		for i, seed := range seeds {
			if ctx.Err() != nil {
				return radio.Canceled(ctx)
			}
			r.rng.Reseed(seed)
			req := r.req
			scratch := scratchPool.Get().(*trialScratch)
			req.Graph, req.Engine = scratch.draw(r.spec, &r.rng)
			if obs != nil {
				req.Observer = obs[i]
			}
			rounds, err := exec.Time(ctx, &req, &r.rng)
			scratch.release()
			if err != nil {
				return err
			}
			out[i] = rounds
		}
	}
	for i, rounds := range out {
		values[i], oks[i] = float64(rounds), rounds <= r.req.MaxRounds
		if r.counters != nil {
			values[i] = collisionRate(&r.counters[i])
		}
	}
	return nil
}

// collisionRate is the measured value of one observed trial:
// collisions / (successes + collisions + silent).
func collisionRate(c *trace.Counters) float64 {
	listens := c.Successes + c.Collisions + c.Silent
	if listens == 0 {
		return 0
	}
	return float64(c.Collisions) / float64(listens)
}

// centralizedRunner measures the replayed length of the Theorem 5
// centralized schedule: value is the executed rounds, ok reports
// completion. Each trial samples a fresh graph and builds a fresh
// schedule seeded from the trial's stream; with FixedGraph the graph is
// pinned to the point seed and only the schedule seed varies per trial
// (a fixed-graph fixed-schedule replay would be the same deterministic
// number every trial). Either way the replay runs on a caller-owned
// engine: the runner's own for the pinned graph, the scratch's otherwise.
type centralizedRunner struct {
	spec   TrialSpec
	fixed  *graph.Graph  // non-nil iff FixedGraph
	engine *radio.Engine // built once on fixed
	rng    xrand.Rand
}

func newCentralizedRunner(p PointSpec, pointSeed uint64, _ bool) (Runner, error) {
	r := &centralizedRunner{spec: p.Trial}
	if p.Trial.FixedGraph {
		r.fixed = sampleConnected(nil, p.Trial.N, p.Trial.D, xrand.New(pointSeed).Derive(graphSeedID))
		r.engine = exec.NewEngine(r.fixed)
	}
	return r, nil
}

func (r *centralizedRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	for i, seed := range seeds {
		if ctx.Err() != nil {
			return radio.Canceled(ctx)
		}
		r.rng.Reseed(seed)
		req := exec.Request{Graph: r.fixed, Engine: r.engine, Sources: []int32{0}}
		var scratch *trialScratch
		if req.Graph == nil {
			scratch = scratchPool.Get().(*trialScratch)
			req.Graph, req.Engine = scratch.draw(r.spec, &r.rng)
		}
		sched, _, err := core.BuildCentralizedSchedule(req.Graph, 0, r.spec.D, core.DefaultCentralizedConfig(r.rng.Uint64()))
		if err != nil {
			panic(fmt.Sprintf("campaign: building centralized schedule: %v", err))
		}
		// Schedule replay is deterministic (no rng): the schedule backend.
		req.Schedule = sched
		res, err := exec.Run(ctx, &req, nil)
		if scratch != nil {
			scratch.release()
		}
		if errors.Is(err, radio.ErrCanceled) {
			return err
		} else if err != nil {
			panic(fmt.Sprintf("campaign: replaying centralized schedule: %v", err))
		}
		values[i], oks[i] = float64(res.Rounds), res.Completed
	}
	return nil
}

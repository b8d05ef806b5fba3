// Package exec is the unified execution layer: one place that picks a
// simulation backend, owns engine lifecycle and reuse, and counts what
// ran. Every consumer — the root facade (Run/RunBatch/BroadcastTime),
// internal/sweep, the experiments, core and lower, cmd/radiosim, the
// campaign runners and the serving layer — dispatches through an
// Executor instead of constructing or running radio or lane engines
// itself, so backend selection, fallback and pooling have exactly one
// implementation and one metrics surface. The collision-detection model
// runs through the same door (Request.Feedback) on the scalar engine.
// scripts/archlint.sh enforces the rule.
//
// Classification:
//
//	schedule replay            → BackendSchedule (deterministic, no rng)
//	single trial / non-uniform
//	protocol / CD feedback     → BackendScalar (the engine decides per
//	                             round: sampled when the protocol
//	                             declares a uniform round, per-node
//	                             otherwise)
//	trial batch of a protocol
//	with a fully uniform
//	schedule, observed or not  → BackendLanes (64 trials per word), with
//	                             scalar fallback otherwise
//
// A single trial is observed through Request.Observer; a batch takes one
// observer per trial next to its seeds (RunSeedsObserved), on either
// backend.
//
// The protocol's radio.UniformProtocol declaration is the only switch
// between sampled and per-node transmitter selection. A protocol that
// does not declare uniform rounds runs the frozen per-node stream, and
// so does any protocol p behind the one-line adapter
//
//	req.Protocol = struct{ radio.Protocol }{p}
//
// which also keeps its batches off the lane engine.
//
// The PR 3 stream policy is preserved exactly: single trials run the
// scalar engine's sampled stream, batches run the lane engine's stream
// (distributionally identical, not bit-identical), and each trial is a
// pure function of its own derived seed, so dispatch through exec is
// byte-identical to the per-layer code it replaced.
package exec

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Width is the lane-block width: batch dispatchers that block trials
// (the campaign runner) size their blocks to it.
const Width = lanes.Width

// Backend identifies which simulation engine executed a request.
type Backend int

const (
	// BackendScalar is the per-node/sampled scalar engine.
	BackendScalar Backend = iota
	// BackendSchedule is deterministic schedule replay (no rng).
	BackendSchedule
	// BackendLanes is the bit-parallel lane engine (batches only).
	BackendLanes
	numBackends
)

func (b Backend) String() string {
	switch b {
	case BackendScalar:
		return "scalar"
	case BackendSchedule:
		return "schedule"
	case BackendLanes:
		return "lanes"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Request describes one simulation configuration: what to run and on
// what engine state. The zero value of every optional field selects the
// default behaviour.
type Request struct {
	Graph   *graph.Graph
	Sources []int32

	// Protocol drives randomized runs; Schedule, when non-nil, replays a
	// centralized schedule instead (Protocol, MaxRounds and rng do not
	// apply) under the engine's policy: StrictInformed, unless a
	// caller Engine was built with another.
	Protocol  radio.Protocol
	Schedule  *radio.Schedule
	MaxRounds int

	// Feedback, when non-nil, runs a collision-detection-model protocol
	// instead of Protocol (single trials only, on the scalar engine):
	// listeners tell silence, a message and a collision apart. Setting
	// it together with Protocol or Schedule is an error.
	Feedback radio.FeedbackProtocol

	// Observer receives the round-level trace callbacks of a single
	// trial. Batches take one observer per trial instead
	// (RunSeedsObserved) and refuse a request that sets this one.
	Observer trace.Observer

	// Engine, when non-nil, runs the request on this caller-owned engine
	// (the facade WithEngine path, protocol or schedule): its sources and
	// observer are re-initialised from the request and result reuse is
	// enabled, so a run is bit-identical to a fresh-engine run. The caller keeps ownership; exec never pools it.
	Engine *radio.Engine

	// Pool checks a scalar engine out of the executor's per-graph pool
	// for the run and back in afterwards — the serving layer's
	// steady-state path. Ignored when Engine is set.
	Pool bool

	// ForceScalar refuses the lane backend for batches even when the
	// protocol is lane-capable.
	ForceScalar bool
}

// BackendStats are one backend's cumulative counters.
type BackendStats struct {
	// Runs counts dispatches (one per single trial, one per batch);
	// Trials counts individual trials, so for batches Trials advances by
	// the batch size per run.
	Runs   int64 `json:"runs"`
	Trials int64 `json:"trials"`
	// Fallbacks counts batch dispatches that wanted the lane engine but
	// ran scalar (non-uniform protocol, caller engine, forced).
	Fallbacks int64 `json:"fallbacks"`
	// PoolHits/PoolMisses count engine checkouts served from the
	// per-graph pool vs. built fresh; a lane batch checks out one engine
	// per worker.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
}

// Stats is the executor's counter snapshot, one section per backend —
// the single metrics surface serve and cluster workers expose.
type Stats struct {
	Scalar   BackendStats `json:"scalar"`
	Schedule BackendStats `json:"schedule"`
	Lanes    BackendStats `json:"lanes"`
}

// counters is the hot mutable twin of BackendStats.
type counters struct {
	runs, trials, fallbacks, poolHits, poolMisses atomic.Int64
}

func (c *counters) snapshot() BackendStats {
	return BackendStats{
		Runs:       c.runs.Load(),
		Trials:     c.trials.Load(),
		Fallbacks:  c.fallbacks.Load(),
		PoolHits:   c.poolHits.Load(),
		PoolMisses: c.poolMisses.Load(),
	}
}

// poolEntry holds the idle engines pooled for one graph instance.
// Engines are keyed by graph pointer, never by structural value: an
// engine must not run on a different graph than it was built for, even
// a bit-identical rebuild, so a rebuilt graph always misses.
type poolEntry struct {
	g         *graph.Graph
	idle      []*radio.Engine
	idleLanes []*lanes.Engine // any sources and plan; Retarget re-aims them
}

// Executor classifies requests onto backends, pools scalar and lane
// engines per graph, and counts every dispatch. The zero value is not
// ready; use New (isolated, e.g. for tests) or the package-level
// functions, which share one process-wide instance.
type Executor struct {
	graphCap   int   // max graphs with pooled engines (LRU beyond)
	engineCap  int   // max idle scalar engines kept per graph
	laneBudget int64 // max bytes of idle lane engines, over all graphs

	mu        sync.Mutex
	entries   map[*graph.Graph]*list.Element
	order     *list.List // front = most recently used
	laneBytes int64      // Footprint sum of every idle lane engine

	c [numBackends]counters
}

const (
	defaultGraphCap  = 64
	defaultEngineCap = 16

	// laneBudget bounds idle lane-engine memory. A warm lane engine holds
	// about 330 bytes per node (33 MB at n=1e5) and keeps its graph
	// alive, so an unbounded pool would keep every graph a process ever
	// batched on. 256 MiB holds a few worker sets at n=1e5; an engine
	// larger than the whole budget (a warm one beyond n of about 8e5) is
	// never pooled.
	laneBudget = 256 << 20
)

// New returns an isolated executor with default pool bounds.
func New() *Executor {
	return &Executor{
		graphCap:   defaultGraphCap,
		engineCap:  defaultEngineCap,
		laneBudget: laneBudget,
		entries:    make(map[*graph.Graph]*list.Element),
		order:      list.New(),
	}
}

// std is the process-wide executor behind the package-level functions.
// The facade, sweep, the campaign runner and the serving layer all
// dispatch through it, so its Snapshot is the one metrics surface for
// everything that ran.
var std = New()

// classify reports the backend a single-trial request executes on.
// Single trials never use lanes (the lane engine is a different
// randomness stream and only pays off across a batch): a schedule
// replays, everything else (CD feedback included) runs the scalar
// engine.
func classify(req *Request) Backend {
	if req.Schedule != nil {
		return BackendSchedule
	}
	return BackendScalar
}

// classifyBatch reports the backend a trial batch of req executes on:
// the lane engine when the protocol declares a fully uniform schedule
// over the round budget and nothing scalar-only (a caller engine,
// ForceScalar) is requested; the scalar engine otherwise.
func classifyBatch(req *Request) Backend {
	if req.Schedule != nil {
		return BackendSchedule
	}
	if _, ok := batchPlan(req); ok {
		return BackendLanes
	}
	return BackendScalar
}

// Run executes one trial of req and returns the full Result on the
// engine checkout resolves: schedules replay deterministically (rng
// unused) under the engine's policy, protocols and CD feedback
// protocols run the scalar engine with rng. Cancellation is cooperative
// between rounds: a canceled ctx returns the partial Result and an
// error wrapping radio.ErrCanceled.
func (x *Executor) Run(ctx context.Context, req *Request, rng *xrand.Rand) (radio.Result, error) {
	if req.Feedback != nil && (req.Protocol != nil || req.Schedule != nil) {
		return radio.Result{}, errFeedbackMixed
	}
	e, pooled := x.checkout(req)
	b := classify(req)
	x.c[b].runs.Add(1)
	x.c[b].trials.Add(1)
	var res radio.Result
	var err error
	switch {
	case req.Schedule != nil:
		res, err = radio.ExecuteScheduleOnContext(ctx, e, req.Schedule)
	case req.Feedback != nil:
		res, err = radio.RunCDProtocolContext(ctx, e, req.Feedback, req.MaxRounds, rng)
	default:
		res, err = e.RunProtocolContext(ctx, req.Protocol, req.MaxRounds, rng)
	}
	if pooled {
		// Clean return only: a panicking trial abandons the engine to the
		// GC instead of pooling corrupt state.
		x.release(e)
	}
	return res, err
}

// errFeedbackMixed refuses a request that sets a CD feedback protocol
// next to a protocol or a schedule: exactly one of them runs.
var errFeedbackMixed = errors.New("exec: Request.Feedback excludes Protocol and Schedule")

// errFeedbackSingle refuses CD feedback requests on the timing and
// batch paths, which run protocols only.
var errFeedbackSingle = errors.New("exec: Time and RunSeeds run protocols only; run a CD feedback request with Run")

// Time executes one trial of a protocol request and returns only the
// completion round (maxRounds+1 if the broadcast did not finish) — the
// allocation-free twin of Run for measurement loops.
func (x *Executor) Time(ctx context.Context, req *Request, rng *xrand.Rand) (int, error) {
	if req.Feedback != nil {
		return 0, errFeedbackSingle
	}
	e, pooled := x.checkout(req)
	x.c[BackendScalar].runs.Add(1)
	x.c[BackendScalar].trials.Add(1)
	r, err := radio.BroadcastTimeOnContext(ctx, e, req.Protocol, req.MaxRounds, rng)
	if pooled {
		x.release(e)
	}
	return r, err
}

// RunSeeds executes one trial per seed, out[i] receiving seed i's
// completion round, and reports the backend that ran. Lane-classified
// batches run lane blocks across a worker pool; everything else falls
// back to per-seed scalar trials on a private worker pool. Either way
// each worker checks one engine out of the per-graph pool and back in
// when the batch returns. Trial i is a pure function of seeds[i]:
// results are bitwise independent of worker count, sharding, GOMAXPROCS
// and which pooled engine ran it. On cancellation the error wraps
// radio.ErrCanceled and out's unfinished entries are unspecified.
func (x *Executor) RunSeeds(ctx context.Context, req *Request, seeds []uint64, out []int) (Backend, error) {
	return x.RunSeedsObserved(ctx, req, seeds, nil, out)
}

// RunSeedsObserved is RunSeeds with obs[i] observing trial i (a nil
// entry leaves that trial unobserved, nil obs every trial) on whichever
// backend runs the batch: a lane block reports each lane to its trial's
// observer, the scalar fallback attaches it for the trial. Observing
// changes no completion round. A batch whose request sets
// Request.Observer is refused: that observer belongs to a single trial.
func (x *Executor) RunSeedsObserved(ctx context.Context, req *Request, seeds []uint64, obs []trace.Observer, out []int) (Backend, error) {
	switch {
	case req.Schedule != nil:
		return BackendSchedule, fmt.Errorf("exec: schedule replay is single-trial; RunSeeds takes protocols")
	case req.Feedback != nil:
		return BackendScalar, errFeedbackSingle
	case req.Observer != nil:
		return classifyBatch(req), errBatchObserver
	}
	if err := checkSlots(seeds, obs, out); err != nil {
		return classifyBatch(req), err
	}
	if len(seeds) == 0 {
		return classifyBatch(req), nil
	}
	if plan, ok := batchPlan(req); ok {
		x.c[BackendLanes].runs.Add(1)
		x.c[BackendLanes].trials.Add(int64(len(seeds)))
		return BackendLanes, x.runSeedsLanes(ctx, req, plan, seeds, obs, out)
	}
	x.c[BackendScalar].runs.Add(1)
	x.c[BackendScalar].trials.Add(int64(len(seeds)))
	x.c[BackendScalar].fallbacks.Add(1)
	return BackendScalar, x.runSeedsScalar(ctx, req, seeds, obs, out)
}

// errBatchObserver refuses a batch observed through Request.Observer,
// which belongs to a single trial.
var errBatchObserver = errors.New("exec: a batch takes one observer per trial, not Request.Observer")

// checkSlots checks that a batch has one result slot, and when observed
// one observer, per seed.
func checkSlots(seeds []uint64, obs []trace.Observer, out []int) error {
	switch {
	case len(seeds) != len(out):
		return fmt.Errorf("exec: %d seeds but %d result slots", len(seeds), len(out))
	case obs != nil && len(obs) != len(seeds):
		return fmt.Errorf("exec: %d seeds but %d observers", len(seeds), len(obs))
	}
	return nil
}

// batchPlan returns the lane plan for a batch of req when lanes are the
// classified backend: the protocol plans as fully uniform over the round
// budget and nothing scalar-only (a caller engine, ForceScalar) is
// requested.
func batchPlan(req *Request) (*lanes.Plan, bool) {
	if req.ForceScalar || req.Engine != nil {
		return nil, false
	}
	return lanes.NewPlan(req.Protocol, req.MaxRounds)
}

// runSeedsLanes is RunSeeds' lane path: Width-seed blocks on
// min(GOMAXPROCS, blocks) pooled lane engines. The engines go back to
// the pool even when the batch was canceled: every block starts by
// clearing whatever a canceled one left behind.
func (x *Executor) runSeedsLanes(ctx context.Context, req *Request, plan *lanes.Plan, seeds []uint64, obs []trace.Observer, out []int) error {
	blocks := (len(seeds) + Width - 1) / Width
	engines := x.acquireLanes(req, plan, min(runtime.GOMAXPROCS(0), blocks))
	err := lanes.RunBlocksOn(ctx, engines, seeds, obs, out)
	x.releaseLanes(req.Graph, engines)
	return err
}

// observer returns trial i's observer of a possibly unobserved batch.
func observer(obs []trace.Observer, i int) trace.Observer {
	if obs == nil {
		return nil
	}
	return obs[i]
}

// runSeedsScalar is RunSeeds' scalar fallback: per-seed trials fanned
// out to min(GOMAXPROCS, len(seeds)) workers, one pooled engine per
// worker, with trial i's observer attached for trial i.
func (x *Executor) runSeedsScalar(ctx context.Context, req *Request, seeds []uint64, obs []trace.Observer, out []int) error {
	workers := min(runtime.GOMAXPROCS(0), len(seeds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := x.AcquireEngine(req.Graph)
			e.SetSources(req.Sources)
			for i := range next {
				// A canceled trial leaves out[i] at the engine's partial
				// count; the ctx.Err() check below reports the batch failed.
				e.Attach(observer(obs, i))
				r, _ := radio.BroadcastTimeOnContext(ctx, e, req.Protocol, req.MaxRounds, xrand.New(seeds[i]))
				out[i] = r
			}
			x.release(e)
		}()
	}
dispatch:
	for i := range seeds {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if ctx.Err() != nil {
		return radio.Canceled(ctx)
	}
	return nil
}

// checkout resolves the scalar engine a request runs on: the caller's
// own engine (re-initialised, stays theirs), a pooled one (returned by
// the caller via release on clean completion), or a fresh build.
func (x *Executor) checkout(req *Request) (e *radio.Engine, pooled bool) {
	switch {
	case req.Engine != nil:
		e = req.Engine
		e.SetSources(req.Sources)
		e.SetResultReuse(true)
	case req.Pool:
		e = x.AcquireEngine(req.Graph)
		e.SetSources(req.Sources)
		e.SetResultReuse(true)
		pooled = true
	default:
		e = radio.NewEngineMulti(req.Graph, req.Sources, radio.StrictInformed)
	}
	e.Attach(req.Observer)
	return e, pooled
}

// release detaches and checks a pooled engine back in.
func (x *Executor) release(e *radio.Engine) {
	e.Attach(nil)
	x.ReleaseEngine(e)
}

// AcquireEngine checks a scalar engine for g out of the per-graph pool,
// building one on a miss. Engines are handed out only for the exact
// graph pointer they were built on. Callers that route through the
// facade (repro.WithEngine) get sources and observer re-initialised
// there; others must SetSources themselves. Return the
// engine with ReleaseEngine when the run is over — or drop it on a
// panic, so corrupt state never re-enters the pool.
func (x *Executor) AcquireEngine(g *graph.Graph) *radio.Engine {
	x.mu.Lock()
	if el, ok := x.entries[g]; ok {
		x.order.MoveToFront(el)
		ent := el.Value.(*poolEntry)
		if n := len(ent.idle); n > 0 {
			e := ent.idle[n-1]
			ent.idle[n-1] = nil
			ent.idle = ent.idle[:n-1]
			x.mu.Unlock()
			x.c[BackendScalar].poolHits.Add(1)
			return e
		}
	}
	x.mu.Unlock()
	x.c[BackendScalar].poolMisses.Add(1)
	return radio.NewEngine(g, 0, radio.StrictInformed)
}

// ReleaseEngine returns an engine to its graph's pool, creating the
// pool entry on first release and evicting the least-recently-used
// graph's engines beyond the executor's graph bound. Engines beyond the
// per-graph bound are dropped for the GC.
func (x *Executor) ReleaseEngine(e *radio.Engine) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ent := x.entry(e.Graph())
	if len(ent.idle) < x.engineCap {
		ent.idle = append(ent.idle, e)
	}
}

// acquireLanes checks k lane engines for req.Graph out of the per-graph
// pool, re-aimed at req's sources and plan, and builds fresh ones for
// the rest. Each engine counts as one lane pool hit or miss.
func (x *Executor) acquireLanes(req *Request, plan *lanes.Plan, k int) []*lanes.Engine {
	engines := make([]*lanes.Engine, 0, k)
	x.mu.Lock()
	if el, ok := x.entries[req.Graph]; ok {
		x.order.MoveToFront(el)
		ent := el.Value.(*poolEntry)
		for len(engines) < k && len(ent.idleLanes) > 0 {
			e := ent.popLane()
			x.laneBytes -= e.Footprint()
			engines = append(engines, e)
		}
	}
	x.mu.Unlock()
	x.c[BackendLanes].poolHits.Add(int64(len(engines)))
	x.c[BackendLanes].poolMisses.Add(int64(k - len(engines)))
	for _, e := range engines {
		e.Retarget(req.Sources, plan)
	}
	for len(engines) < k {
		engines = append(engines, lanes.NewEngine(req.Graph, req.Sources, plan))
	}
	return engines
}

// releaseLanes checks lane engines back into g's pool, at most
// GOMAXPROCS per graph, then evicts idle lane engines from the
// least-recently-used graphs until their bytes fit the lane budget. An
// engine larger than the whole budget is never pooled.
func (x *Executor) releaseLanes(g *graph.Graph, engines []*lanes.Engine) {
	perGraph := runtime.GOMAXPROCS(0)
	x.mu.Lock()
	defer x.mu.Unlock()
	var ent *poolEntry
	for _, e := range engines {
		e.Observe(nil) // idle engines hold no caller observer
		fp := e.Footprint()
		if fp > x.laneBudget {
			continue
		}
		if ent == nil {
			ent = x.entry(g)
		}
		if len(ent.idleLanes) >= perGraph {
			break
		}
		ent.idleLanes = append(ent.idleLanes, e)
		x.laneBytes += fp
	}
	for el := x.order.Back(); el != nil && x.laneBytes > x.laneBudget; {
		prev := el.Prev()
		ent := el.Value.(*poolEntry)
		for len(ent.idleLanes) > 0 && x.laneBytes > x.laneBudget {
			x.laneBytes -= ent.popLane().Footprint()
		}
		if len(ent.idle) == 0 && len(ent.idleLanes) == 0 {
			x.remove(el)
		}
		el = prev
	}
}

// popLane removes and returns the entry's most recently pooled lane
// engine.
func (ent *poolEntry) popLane() *lanes.Engine {
	n := len(ent.idleLanes)
	e := ent.idleLanes[n-1]
	ent.idleLanes[n-1] = nil
	ent.idleLanes = ent.idleLanes[:n-1]
	return e
}

// entry returns g's pool entry as the most recently used, creating it
// and evicting the least-recently-used graph's entry beyond the graph
// bound. x.mu must be held.
func (x *Executor) entry(g *graph.Graph) *poolEntry {
	if el, ok := x.entries[g]; ok {
		x.order.MoveToFront(el)
		return el.Value.(*poolEntry)
	}
	ent := &poolEntry{g: g}
	x.entries[g] = x.order.PushFront(ent)
	for x.order.Len() > x.graphCap {
		x.remove(x.order.Back())
	}
	return ent
}

// remove drops a pool entry and every engine it holds. x.mu must be
// held.
func (x *Executor) remove(el *list.Element) {
	ent := x.order.Remove(el).(*poolEntry)
	delete(x.entries, ent.g)
	for _, e := range ent.idleLanes {
		x.laneBytes -= e.Footprint()
	}
}

// Forget drops every scalar and lane engine pooled for g — the eviction
// hook for graph caches, keeping engine memory from outliving the graphs
// it serves. (Correctness never depends on it: a rebuilt graph is a new
// pointer and misses regardless.)
func (x *Executor) Forget(g *graph.Graph) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if el, ok := x.entries[g]; ok {
		x.remove(el)
	}
}

// Snapshot returns the executor's cumulative counters.
func (x *Executor) Snapshot() Stats {
	return Stats{
		Scalar:   x.c[BackendScalar].snapshot(),
		Schedule: x.c[BackendSchedule].snapshot(),
		Lanes:    x.c[BackendLanes].snapshot(),
	}
}

// Session pins one request's engines across many trials — the campaign
// runner's per-(worker, point) reuse: the scalar engine is built once
// and reset per trial, the lane engine lazily on the first batched
// block. A Session is not safe for concurrent use; its trials remain
// pure functions of their rng/seed, so which session ran a trial never
// shows in the results. Sessions never use the executor's engine pool —
// their engines live for the session and are abandoned to the GC with
// it.
type Session struct {
	x    *Executor
	req  Request
	plan *lanes.Plan // non-nil iff batches of req classify as lanes

	engine *radio.Engine // lazily built scalar engine
	lane   *lanes.Engine // lazily built lane engine
	rng    xrand.Rand    // reseeded per scalar batch trial
}

// Open prepares a session for req. The request is captured by value
// (sources copied), so later caller mutations don't leak in.
func (x *Executor) Open(req *Request) *Session {
	s := &Session{x: x, req: *req}
	s.req.Sources = append([]int32(nil), req.Sources...)
	s.req.Pool = false // session engines are owned, never pooled
	if s.req.Schedule == nil {
		s.plan, _ = batchPlan(&s.req)
	}
	return s
}

// scalar returns the session's scalar engine, building it on first use.
func (s *Session) scalar() *radio.Engine {
	if s.engine == nil {
		if s.req.Engine != nil {
			s.engine = s.req.Engine
			s.engine.SetSources(s.req.Sources)
			s.engine.SetResultReuse(true)
		} else {
			s.engine = radio.NewEngineMulti(s.req.Graph, s.req.Sources, radio.StrictInformed)
		}
		s.engine.Attach(s.req.Observer)
	}
	return s.engine
}

// Time runs one trial on the session's scalar engine (reset first) and
// returns the completion round, maxRounds+1 if the broadcast did not
// finish. Uncanceled, it is bit-identical for a given rng no matter
// which session or worker runs it.
func (s *Session) Time(ctx context.Context, rng *xrand.Rand) (int, error) {
	e := s.scalar()
	s.x.c[BackendScalar].runs.Add(1)
	s.x.c[BackendScalar].trials.Add(1)
	return radio.BroadcastTimeOnContext(ctx, e, s.req.Protocol, s.req.MaxRounds, rng)
}

// RunSeeds runs one trial per seed through the session's batch backend:
// the lane engine (built lazily on the first call, then reused) in
// blocks of up to Width seeds, or — when the session classified scalar
// — per-seed trials on the session's scalar engine, identical to
// dispatching each seed through Time. out[i] receives seed i's
// completion round.
func (s *Session) RunSeeds(ctx context.Context, seeds []uint64, out []int) error {
	return s.RunSeedsObserved(ctx, seeds, nil, out)
}

// RunSeedsObserved is RunSeeds with obs[i] observing trial i, as
// Executor.RunSeedsObserved. The session's Request.Observer stays the
// observer of its single trials (Time) only: a batch with nil obs on a
// session that has one is refused.
func (s *Session) RunSeedsObserved(ctx context.Context, seeds []uint64, obs []trace.Observer, out []int) error {
	if obs == nil && s.req.Observer != nil {
		return errBatchObserver
	}
	if err := checkSlots(seeds, obs, out); err != nil {
		return err
	}
	if s.plan == nil {
		s.x.c[BackendScalar].runs.Add(1)
		s.x.c[BackendScalar].trials.Add(int64(len(seeds)))
		s.x.c[BackendScalar].fallbacks.Add(1)
		e := s.scalar()
		defer e.Attach(s.req.Observer)
		for i, seed := range seeds {
			e.Attach(observer(obs, i))
			s.rng.Reseed(seed)
			r, err := radio.BroadcastTimeOnContext(ctx, e, s.req.Protocol, s.req.MaxRounds, &s.rng)
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	}
	s.x.c[BackendLanes].runs.Add(1)
	s.x.c[BackendLanes].trials.Add(int64(len(seeds)))
	if s.lane == nil {
		s.lane = lanes.NewEngine(s.req.Graph, s.req.Sources, s.plan)
	}
	for lo := 0; lo < len(seeds); lo += Width {
		hi := min(lo+Width, len(seeds))
		var blockObs []trace.Observer
		if obs != nil {
			blockObs = obs[lo:hi]
		}
		s.lane.Observe(blockObs)
		if err := s.lane.RunContext(ctx, seeds[lo:hi], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Package-level conveniences dispatching through the process-wide
// executor.

// Run executes one trial on the default executor; see Executor.Run.
func Run(ctx context.Context, req *Request, rng *xrand.Rand) (radio.Result, error) {
	return std.Run(ctx, req, rng)
}

// Time executes one timed trial on the default executor; see
// Executor.Time.
func Time(ctx context.Context, req *Request, rng *xrand.Rand) (int, error) {
	return std.Time(ctx, req, rng)
}

// RunSeeds executes a seed batch on the default executor; see
// Executor.RunSeeds.
func RunSeeds(ctx context.Context, req *Request, seeds []uint64, out []int) (Backend, error) {
	return std.RunSeeds(ctx, req, seeds, out)
}

// Open opens a session on the default executor; see Executor.Open.
func Open(req *Request) *Session { return std.Open(req) }

// AcquireEngine checks an engine out of the default executor's pool.
func AcquireEngine(g *graph.Graph) *radio.Engine { return std.AcquireEngine(g) }

// ReleaseEngine returns an engine to the default executor's pool.
func ReleaseEngine(e *radio.Engine) { std.ReleaseEngine(e) }

// Forget drops the default executor's pooled engines for g.
func Forget(g *graph.Graph) { std.Forget(g) }

// Snapshot returns the default executor's counters.
func Snapshot() Stats { return std.Snapshot() }

// Package lanes implements a bit-parallel Monte-Carlo broadcast engine:
// up to 64 independent trials ("lanes") advance through the same graph
// simultaneously, one machine word per node, so a single edge pass serves
// every lane at once.
//
// Per round each transmitting node v carries a 64-bit mask M_v whose bit i
// means "v transmits in lane i". The collision-aware scatter is carry-save
// over two bitplanes per listener w:
//
//	twice[w] |= once[w] & M_v
//	once[w]  |= M_v
//
// so after the pass, bit i of once&^twice is "exactly one transmitting
// neighbour in lane i" (success) and bit i of twice is ">=2 hits"
// (collision) — the radio model's delivery rule falls out per lane with
// pure word ops, no per-lane branching. Nodes that transmit in a lane do
// not listen in it (the received mask is additionally cleared by the
// node's own transmit mask), and informed sets are per-lane bitplanes, so
// per-lane early exit is a matter of masking finished lanes out of one
// "active" word.
//
// The scatter has a dual: once most listeners are saturated (informed in
// every still-active lane, so their reception can never matter again),
// the engine flips to a gather pass over the remaining live listeners —
// each live w folds its neighbours' transmit masks into local once/twice
// words — which makes the per-round cost track the shrinking frontier
// instead of the transmitter union. The cheaper side is chosen per round
// from the two exact visit counts; both sides commit identical results.
//
// Randomness follows the sampled-transmitter policy established by the
// scalar fast path: each lane walks its eligible list with geometric
// skips of rate q (xrand.GeometricExp), which realises an independent
// Bernoulli(q) transmit decision per eligible node — the same joint
// distribution as the scalar path's k ~ Binomial(|eligible|, q) draw
// followed by a uniform k-subset, in O(k) draws with no list writes. Each
// lane owns a private xrand stream seeded solely from that trial's seed,
// and every structure a lane's draws depend on (its eligible lists) is
// updated in a lane-pure order — ascending vertex order within a round —
// so a trial's outcome is a pure function of (graph, sources, plan, seed):
// bit-identical no matter the lane width, which other trials share its
// block, or how blocks are sharded across workers. That invariance is
// what lets campaign reports stay deterministic across -lanes settings.
//
// Each lane walks its list in chunks of up to pickChunk picks, in two
// passes. The first draws the skips and records the positions, reading
// no list; the second, the build's own loop over the chunk, loads and
// marks the vertex at every recorded position. Its loads depend on
// neither the draws nor each other, so many list misses are in flight at
// once, where a straight walk put each load behind a whole draw. The
// chunked walk makes exactly the straight walk's draws — the first skip,
// one skip after every pick including the one that overshoots the list,
// none for an empty list and none at a refill — so every lane's stream,
// and every result, is unchanged by it.
//
// The picks become transmit masks in one of two ways per round. A sparse
// round marks each pick in order, and a vertex joins the transmitter
// union when its mask is first found zero: a random read and a branch
// per pick. A dense round — expected picks at least n/8 — ORs the picks
// into txMask unread and one ascending pass over txMask then builds the
// union, with sequential mask and degree reads. Both builds share the
// chunked walk, so they make the same draws — lanes walk in the same
// order and consume the same skips — and OR commutes, so txMask, and
// everything computed from it, is bit-identical whichever path a round
// takes.
//
// The engine handles protocols through the radio.UniformProtocol
// capability only: the per-round (q, cohort) schedule is probed up front
// into a Plan (RoundProb is deterministic and consumes no randomness, so
// probing is free); protocols with any non-uniform round fall back to the
// scalar engine.
//
// Runs can be watched through the standard trace.Observer, one observer
// per lane (Observe): lane i receives BeginRun, one RoundRecord per round
// it was active in, and EndRun, exactly the stream a scalar engine emits
// for the same transmitter sets; transmitter sets are passed in ascending
// vertex order, which keeps them lane-pure. The per-lane transmitter,
// success and collision counts come from bit-sliced counters — each
// round's txMask, reception and collision words are ripple-added into a
// few bitplanes and unpacked once per round — so observing costs word
// operations, not a per-lane branch per hit. Observed runs count at every
// listener, which turns the saturated-listener skip off; their completion
// rounds are unchanged.
package lanes

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Width is the number of trials a single lane block advances per edge
// pass: one per bit of a machine word.
const Width = 64

// Plan is a protocol's uniform-round schedule, probed once up front:
// per-round transmit probability and cohort, plus the set of distinct
// InformedBy cutoffs (the engine keeps one extra bitplane per cutoff).
type Plan struct {
	maxRounds int
	q         []float64 // q[r-1]: transmit probability of round r
	lam       []float64 // lam[r-1]: -log1p(-q), the geometric skip rate (0 unless 0<q<1)
	cohort    []int     // cohort[r-1]: -1 = AllInformed, else index into cutoffs
	cutoffs   []int32   // distinct InformedBy cutoffs, in first-seen order
}

// NewPlan probes p's per-round schedule for rounds 1..maxRounds. ok is
// false — and the caller must fall back to the scalar engine — when p
// does not implement radio.UniformProtocol or declares any non-uniform
// round in the budget.
func NewPlan(p radio.Protocol, maxRounds int) (*Plan, bool) {
	up, isUniform := p.(radio.UniformProtocol)
	if !isUniform || maxRounds < 0 {
		return nil, false
	}
	pl := &Plan{
		maxRounds: maxRounds,
		q:         make([]float64, maxRounds),
		lam:       make([]float64, maxRounds),
		cohort:    make([]int, maxRounds),
	}
	for r := 1; r <= maxRounds; r++ {
		q, cohort, ok := up.RoundProb(r)
		if !ok {
			return nil, false
		}
		pl.q[r-1] = q
		if q > 0 && q < 1 {
			pl.lam[r-1] = -math.Log1p(-q)
		}
		cutoff, restricted := cohort.Cutoff()
		if !restricted {
			pl.cohort[r-1] = -1
			continue
		}
		idx := -1
		for k, c := range pl.cutoffs {
			if c == cutoff {
				idx = k
				break
			}
		}
		if idx < 0 {
			idx = len(pl.cutoffs)
			pl.cutoffs = append(pl.cutoffs, cutoff)
		}
		pl.cohort[r-1] = idx
	}
	return pl, true
}

// MaxRounds returns the round budget the plan was probed for. Trials that
// do not complete within it report MaxRounds()+1, mirroring
// radio.BroadcastTimeOnContext.
func (pl *Plan) MaxRounds() int { return pl.maxRounds }

// laneCounts is a bit-sliced counter: one count per lane, with bit k of
// lane i's count stored as bit i of plane k. Thirty-two planes hold any
// per-round count on an int32-indexed graph.
type laneCounts [32]uint64

// add increments the count of every lane whose bit is set in x: a
// ripple-carry add of x into the planes, about two word ops per call.
func (c *laneCounts) add(x uint64) {
	for k := 0; x != 0; k++ {
		carry := c[k] & x
		c[k] ^= x
		x = carry
	}
}

// lane unpacks lane i's count from the low planes.
func (c *laneCounts) lane(i, planes int) int {
	v := 0
	for k := 0; k < planes; k++ {
		v |= int(c[k]>>uint(i)&1) << uint(k)
	}
	return v
}

// Engine runs lane blocks on a fixed graph from a fixed source set. It is
// not safe for concurrent use; RunBlocks keeps one per worker.
type Engine struct {
	g       *graph.Graph
	sources []int32
	plan    *Plan

	informed []uint64 // informed[v] bit i: v holds the message in lane i
	// hits interleaves the two carry-save planes — hits[2v] is "at least
	// one hit" (once), hits[2v+1] is "at least two" (twice) — so each
	// scatter visit touches one cache line instead of two.
	hits    []uint64
	txMask  []uint64 // txMask[v] bit i: v transmits in lane i this round
	done    []uint8  // 1: v informed in every active lane; delivery skips it
	touched []int32  // listeners with hits this round (sparse scatter rounds)
	txUnion []int32  // nodes with nonzero txMask, for O(|tx|) mask clear

	txAscending bool      // txUnion is in ascending vertex order this round
	build       buildMode // buildAuto, or a mode tests force on every round

	picks [pickChunk]int32 // one chunk of a lane's walk (nextPicks)

	// Live-listener bookkeeping for the gather pass: live holds the nodes
	// not yet saturated (done[v] == 0), ascending; liveDeg is the sum of
	// their degrees (the exact gather visit count) and unionDeg the sum of
	// txUnion degrees (the exact scatter visit count) for this round.
	live      []int32
	liveDeg   int
	unionDeg  int
	doneDirty bool // done gained flags since live was last compacted

	unionInformed []int32    // nodes informed in >=1 lane, append order
	cohortPlane   [][]uint64 // per plan cutoff: informed at round <= cutoff
	cohortUnion   [][]int32

	// Per-lane trial state. elig mirrors the scalar engine's incremental
	// eligible lists: every informed node, appended in lane-pure
	// (ascending-vertex within a round) order and never reordered — the
	// geometric skip walk reads but does not permute.
	rngs        []xrand.Rand
	elig        [][]int32
	eligCohort  [][][]int32 // [cutoff index][lane]
	informedCnt []int32
	doneRound   []int32
	active      uint64

	// Per-lane observation (Observe). observed is set iff some lane has an
	// observer; then every round counts transmitters, successes and
	// collisions for all lanes at once in the bit-sliced counters, and
	// runs[i] accumulates lane i's EndRun summary.
	observed        bool
	obs             [Width]trace.Observer
	txObs           [Width]trace.TransmitterObserver
	tx, ok, col     laneCounts
	runs            [Width]trace.Summary
	laneTransmitter []int32 // one lane's transmitter set, for txObs
}

// NewEngine returns a lane engine on g with the given initial informed
// set (sources[0] first, duplicates tolerated) for the planned protocol
// schedule. The engine is reusable: each Run resets all per-trial state.
func NewEngine(g *graph.Graph, sources []int32, plan *Plan) *Engine {
	n := g.N()
	e := &Engine{
		g:           g,
		informed:    make([]uint64, n),
		hits:        make([]uint64, 2*n),
		txMask:      make([]uint64, n),
		done:        make([]uint8, n),
		live:        make([]int32, 0, n),
		rngs:        make([]xrand.Rand, Width),
		elig:        make([][]int32, Width),
		informedCnt: make([]int32, Width),
		doneRound:   make([]int32, Width),
	}
	e.Retarget(sources, plan)
	return e
}

// Retarget re-aims the engine at a new source set and plan on the same
// graph, keeping every O(n) buffer and every grown per-lane list: the
// next Run is bit-identical to one on NewEngine(g, sources, plan).
// Cohort planes are added or dropped to match the plan's cutoff count.
// Sources are checked as NewEngine checks them.
func (e *Engine) Retarget(sources []int32, plan *Plan) {
	n := e.g.N()
	if len(sources) == 0 {
		panic("lanes: an engine needs at least one source")
	}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("lanes: source %d out of range [0,%d)", s, n))
		}
	}
	e.sources = append(e.sources[:0], sources...)
	e.plan = plan
	k := len(plan.cutoffs)
	for len(e.cohortPlane) < k {
		e.cohortPlane = append(e.cohortPlane, make([]uint64, n))
		e.cohortUnion = append(e.cohortUnion, nil)
		e.eligCohort = append(e.eligCohort, make([][]int32, Width))
	}
	// Nil the dropped planes so the GC reclaims them and Footprint
	// stops counting them.
	clear(e.cohortPlane[k:])
	clear(e.cohortUnion[k:])
	clear(e.eligCohort[k:])
	e.cohortPlane = e.cohortPlane[:k]
	e.cohortUnion = e.cohortUnion[:k]
	e.eligCohort = e.eligCohort[:k]
}

// Footprint returns the bytes the engine's buffers hold. It grows with
// use, as the per-lane eligible lists fill towards n entries each: a
// warm engine holds about 330 bytes per node, nine times a fresh one.
func (e *Engine) Footprint() int64 {
	b := 8*(cap(e.informed)+cap(e.hits)+cap(e.txMask)) + cap(e.done) +
		4*(cap(e.sources)+cap(e.touched)+cap(e.txUnion)+cap(e.live)+cap(e.unionInformed)+cap(e.laneTransmitter))
	for _, el := range e.elig {
		b += 4 * cap(el)
	}
	for k := range e.cohortPlane {
		b += 8*cap(e.cohortPlane[k]) + 4*cap(e.cohortUnion[k])
		for _, el := range e.eligCohort[k] {
			b += 4 * cap(el)
		}
	}
	return int64(b)
}

// Observe sets the observers of subsequent runs: lane i of a block
// reports to obs[i], and lanes beyond len(obs) or with a nil entry go
// unobserved; Observe(nil) turns observation off. An observer that also
// implements trace.TransmitterObserver receives the lane's transmitter
// set of every round, in ascending vertex order. The engine copies the
// entries, not the slice.
func (e *Engine) Observe(obs []trace.Observer) {
	if len(obs) > Width {
		panic(fmt.Sprintf("lanes: %d observers exceed %d lanes", len(obs), Width))
	}
	e.observed = false
	for i := range e.obs {
		var o trace.Observer
		if i < len(obs) {
			o = obs[i]
		}
		e.obs[i] = o
		e.txObs[i], _ = o.(trace.TransmitterObserver)
		e.observed = e.observed || o != nil
	}
}

// Run advances one lane block: up to Width trials, seeds[i] seeding lane
// i's private stream. out[i] receives the round in which lane i's
// broadcast completed, or MaxRounds()+1 if it did not finish within the
// plan's budget (the same sentinel radio.BroadcastTimeOnContext uses).
func (e *Engine) Run(seeds []uint64, out []int) {
	// context.Background never cancels, so the error is structurally nil.
	_ = e.RunContext(context.Background(), seeds, out)
}

// RunContext is Run with a cooperative between-rounds cancellation check.
// The check consumes no randomness; an uncanceled run is bit-identical to
// Run. On cancellation the block's results are meaningless and the error
// wraps radio.ErrCanceled with the context's cause.
func (e *Engine) RunContext(ctx context.Context, seeds []uint64, out []int) error {
	width := len(seeds)
	if width == 0 {
		return nil
	}
	if width > Width {
		panic(fmt.Sprintf("lanes: block of %d seeds exceeds %d lanes", width, Width))
	}
	if len(out) != width {
		panic("lanes: Run needs len(out) == len(seeds)")
	}
	n := e.g.N()
	e.resetRun(seeds, width, n)
	e.beginRuns(width)

	// An all-source run never enters the loop: resetRun completed every
	// lane in round 0.
	maxRounds := e.plan.maxRounds
	for round := 1; round <= maxRounds && e.active != 0; round++ {
		if ctx.Err() != nil {
			e.endRuns(width)
			return radio.Canceled(ctx)
		}
		activeAtStart := e.active
		e.buildTransmitters(round, width)
		if e.observed {
			e.countTransmitters(round, activeAtStart)
		}
		e.deliver(round, n)
		if e.observed {
			e.emitRound(round, activeAtStart)
		}
		for _, v := range e.txUnion {
			e.txMask[v] = 0
		}
		if e.active != activeAtStart && e.active != 0 && !e.observed {
			// Lanes retired this round: nodes informed in every remaining
			// active lane are now saturated — their reception can never
			// matter again — so flag them for the delivery skip. done is
			// monotone-safe: active only shrinks, so a set flag stays valid.
			// Only live nodes need rechecking; flagged ones stay flagged.
			a := e.active
			for _, v := range e.live {
				if e.informed[v]&a == a {
					e.done[v] = 1
					e.doneDirty = true
				}
			}
		}
		if e.doneDirty {
			e.compactLive()
			e.doneDirty = false
		}
	}
	e.endRuns(width)
	for i := 0; i < width; i++ {
		out[i] = int(e.doneRound[i]) // maxRounds+1 unless the lane completed
	}
	return nil
}

// resetRun restores pristine per-trial state and seeds the sources.
func (e *Engine) resetRun(seeds []uint64, width, n int) {
	clear(e.informed)
	clear(e.done)
	// hits and txMask are all-zero between rounds by construction; clear
	// anyway so a previously canceled run cannot leak marks into this one.
	clear(e.hits)
	clear(e.txMask)
	e.touched = e.touched[:0]
	e.txUnion = e.txUnion[:0]
	e.unionInformed = e.unionInformed[:0]
	for k := range e.cohortPlane {
		clear(e.cohortPlane[k])
		e.cohortUnion[k] = e.cohortUnion[k][:0]
	}
	active := ^uint64(0)
	if width < Width {
		active = uint64(1)<<uint(width) - 1
	}
	e.active = active
	for i := 0; i < width; i++ {
		e.rngs[i].Reseed(seeds[i])
		if cap(e.elig[i]) < n {
			// A lane's list ends near n entries; growing it by appends
			// would allocate about five times that on the way.
			e.elig[i] = make([]int32, 0, n)
		}
		e.elig[i] = e.elig[i][:0]
		e.informedCnt[i] = 0
		e.doneRound[i] = int32(e.plan.maxRounds + 1)
		for k := range e.eligCohort {
			e.eligCohort[k][i] = e.eligCohort[k][i][:0]
		}
	}
	for _, s := range e.sources {
		if e.informed[s] != 0 {
			continue // duplicate source
		}
		e.informed[s] = active
		if !e.observed {
			// Sources are informed in every lane from round 0. Observed
			// runs count hits at every listener, so they skip none.
			e.done[s] = 1
		}
		e.unionInformed = append(e.unionInformed, s)
		for i := 0; i < width; i++ {
			e.elig[i] = append(e.elig[i], s)
			e.informedCnt[i]++
		}
		for k, cutoff := range e.plan.cutoffs {
			if cutoff >= 0 { // sources have informedAt 0
				e.cohortPlane[k][s] = active
				e.cohortUnion[k] = append(e.cohortUnion[k], s)
				for i := 0; i < width; i++ {
					e.eligCohort[k][i] = append(e.eligCohort[k][i], s)
				}
			}
		}
	}
	e.live = e.live[:0]
	e.liveDeg = 0
	for v := 0; v < n; v++ {
		if e.done[v] == 0 {
			e.live = append(e.live, int32(v))
			e.liveDeg += e.g.Degree(int32(v))
		}
	}
	e.doneDirty = false
	if len(e.unionInformed) == n {
		for i := 0; i < width; i++ {
			e.doneRound[i] = 0
		}
		e.active = 0
	}
}

// Transmitter-build tuning. A round is dense when its expected picks —
// the sum over active lanes of len(eligible)·q, or the informed-union
// size at q >= 1 — reach n/denseDiv: then a sequential scan of txMask
// beats a random read per pick. On G(10^5, 25/n) with 64 full lanes
// (2-vCPU Xeon), one round's build and mask clear cost the same both ways
// at about n/16 expected picks; dense won by 10-25% from n/8 up.
const denseDiv = 8

// buildMode selects how buildTransmitters turns picks into txMask and
// txUnion. Every mode leaves the same marks; only the order of txUnion and
// the memory traffic differ. buildAuto picks per round; the others are
// forced by tests.
type buildMode uint8

const (
	buildAuto   buildMode = iota
	buildSparse           // mark each pick, appending first-seen vertices to txUnion
	buildDense            // OR each pick into txMask, then scan txMask in order
)

// buildTransmitters fills txMask/txUnion (and unionDeg, the scatter visit
// count) for the round. q >= 1 rounds take the whole (cohort) plane;
// 0 < q < 1 rounds walk each active lane's eligible list with geometric
// skips of rate q from the lane's own stream — an independent
// Bernoulli(q) decision per eligible node, the same joint distribution as
// the scalar fast path's k ~ Binomial(|eligible|, q) draw plus uniform
// k-subset, in O(k) draws; q <= 0 rounds transmit nothing (the round
// still counts against the budget).
//
// Sparse rounds mark each pick in walk order and append a vertex to
// txUnion the first time any lane picks it. Dense rounds split the walk
// from its writes: the walk is the same — the chunked walk of nextPicks,
// lanes in the same order, the same draws — but its picks are ORed into
// txMask without reading it, and one ascending pass over txMask then
// builds txUnion and unionDeg with sequential reads. OR commutes, so
// every mode leaves the same txMask, and txUnion holds the same set:
// results are bit-identical whichever path a round takes. A dense q >= 1
// round likewise scans its plane in vertex order instead of walking the
// informed list. Dense rounds leave txUnion ascending.
func (e *Engine) buildTransmitters(round, width int) {
	e.txUnion = e.txUnion[:0]
	e.unionDeg = 0
	e.txAscending = false
	q := e.plan.q[round-1]
	ci := e.plan.cohort[round-1]
	n := len(e.txMask)
	switch {
	case q >= 1:
		list, plane := e.unionInformed, e.informed
		if ci >= 0 {
			list, plane = e.cohortUnion[ci], e.cohortPlane[ci]
		}
		if e.mode(len(list), n) == buildSparse {
			for _, v := range list {
				if m := plane[v] & e.active; m != 0 {
					e.txMask[v] = m
					e.txUnion = append(e.txUnion, v)
					e.unionDeg += e.g.Degree(v)
				}
			}
			return
		}
		for v, m := range plane {
			e.txMask[v] = m & e.active
		}
		e.scanUnion()
	case q > 0:
		lam := e.plan.lam[round-1]
		eligible := 0
		for act := e.active; act != 0; act &= act - 1 {
			eligible += len(e.laneElig(bits.TrailingZeros64(act), ci))
		}
		if e.mode(int(float64(eligible)*q), n) == buildSparse {
			e.markPicks(lam, ci)
			return
		}
		e.orPicks(lam, ci)
		e.scanUnion()
	}
}

// mode returns the build mode of a round expected to mark about picks of
// the n nodes.
func (e *Engine) mode(picks, n int) buildMode {
	switch {
	case e.build != buildAuto:
		return e.build
	case picks < n/denseDiv:
		return buildSparse
	}
	return buildDense
}

// laneElig is lane i's eligible list for the round's cohort.
func (e *Engine) laneElig(i, ci int) []int32 {
	if ci >= 0 {
		return e.eligCohort[ci][i]
	}
	return e.elig[i]
}

// pickChunk is how many picks nextPicks makes per call. A chunk must
// hold many more loads than the CPU keeps in flight, and every engine
// carries one. Over 64, 256 and 1024 (2-vCPU Xeon, 6 interleaved runs
// each), BenchmarkLaneBroadcast medians were 5.7, 5.8 and 5.5 ms/trial
// and BenchmarkLaneBroadcastParallel's 3.1, 2.8 and 2.6, all within the
// machine's run-to-run noise; 256 keeps the buffer at 1 KiB.
const pickChunk = 256

// nextPicks advances a lane's geometric walk over el from position j (a
// pick: j < len(el)) for up to pickChunk picks and returns their
// positions and the position after them. It draws skips and reads no
// list, so the caller's loop over the returned positions makes list loads
// that depend on neither the draws nor each other, and many list misses
// are in flight at once. The caller loads el itself: resolving the
// vertices here, in a loop of their own, costs a store and a load per
// pick, which made 64-lane blocks at n = 2000, whose lists fit in cache,
// about 5% slower than the straight walk. The draws are the straight
// walk's: a skip of 1 + GeometricExp(lam) follows every pick, the one
// that overshoots len(el) included, and a refill draws nothing, so a
// lane's stream ends where the straight walk leaves it.
func (e *Engine) nextPicks(el []int32, rng *xrand.Rand, lam float64, j int) (pos []int32, next int) {
	k := 0
	for ; k < pickChunk && j < len(el); k++ {
		e.picks[k] = int32(j)
		j += 1 + rng.GeometricExp(lam)
	}
	return e.picks[:k], j
}

// markPicks is the sparse build: each chunk of picks is marked in pick
// order, and txUnion gets vertices in first-pick order.
func (e *Engine) markPicks(lam float64, ci int) {
	for act := e.active; act != 0; act &= act - 1 {
		i := bits.TrailingZeros64(act)
		el := e.laneElig(i, ci)
		if len(el) == 0 {
			continue // an empty list consumes no draw
		}
		rng := &e.rngs[i]
		bit := uint64(1) << uint(i)
		for j := rng.GeometricExp(lam); j < len(el); {
			var pos []int32
			pos, j = e.nextPicks(el, rng, lam, j)
			for _, p := range pos {
				v := el[p]
				if e.txMask[v] == 0 {
					e.txUnion = append(e.txUnion, v)
					e.unionDeg += e.g.Degree(v)
				}
				e.txMask[v] |= bit
			}
		}
	}
}

// orPicks is the dense build: each chunk of picks is ORed into txMask
// with no read-dependent branch; scanUnion builds txUnion afterwards.
func (e *Engine) orPicks(lam float64, ci int) {
	for act := e.active; act != 0; act &= act - 1 {
		i := bits.TrailingZeros64(act)
		el := e.laneElig(i, ci)
		if len(el) == 0 {
			continue // an empty list consumes no draw
		}
		rng := &e.rngs[i]
		bit := uint64(1) << uint(i)
		for j := rng.GeometricExp(lam); j < len(el); {
			var pos []int32
			pos, j = e.nextPicks(el, rng, lam, j)
			for _, p := range pos {
				e.txMask[el[p]] |= bit
			}
		}
	}
}

// scanUnion builds txUnion and unionDeg from txMask in one ascending
// pass, with sequential txMask and degree reads.
func (e *Engine) scanUnion() {
	for v, m := range e.txMask {
		if m != 0 {
			e.txUnion = append(e.txUnion, int32(v))
			e.unionDeg += e.g.Degree(int32(v))
		}
	}
	e.txAscending = true
}

// deliver runs the round's carry-save edge pass and classifies every hit
// listener, picking the cheaper of two exact-equivalent strategies:
// gather (iterate live listeners, fold neighbour transmit masks into
// local once/twice words — liveDeg visits, no plane writes, no per-visit
// saturation branch) or scatter (iterate union transmitters into the hits
// planes — unionDeg visits, cheap while the transmitter union is small).
// Saturated listeners commit nothing on either side (their recv masks
// cannot add informed bits), and commits happen in ascending vertex order
// on both — live is sorted, the dense plane scan is naturally ordered and
// the sparse touched list is sorted — which is what keeps per-lane
// eligible-list evolution lane-pure and the strategy choice invisible.
// Neither side depends on txUnion's order, which differs between sparse
// and dense transmitter builds.
func (e *Engine) deliver(round, n int) {
	if e.liveDeg <= 2*e.unionDeg {
		for _, w := range e.live {
			var once, twice uint64
			for _, v := range e.g.Neighbors(w) {
				m := e.txMask[v]
				twice |= once & m
				once |= m
			}
			if once != 0 {
				e.commit(w, once, twice, round)
			}
		}
		return
	}
	e.scatterAndCommit(round, n)
}

// scatterAndCommit is deliver's transmitter-side strategy, with the
// scalar engine's dense/sparse split on the union visit count.
func (e *Engine) scatterAndCommit(round, n int) {
	if 2*e.unionDeg >= n {
		for _, v := range e.txUnion {
			m := e.txMask[v]
			for _, w := range e.g.Neighbors(v) {
				if e.done[w] != 0 {
					continue
				}
				t := e.hits[2*w]
				e.hits[2*w+1] |= t & m
				e.hits[2*w] = t | m
			}
		}
		for w := 0; w < n; w++ {
			once := e.hits[2*w]
			if once == 0 {
				continue
			}
			twice := e.hits[2*w+1]
			e.hits[2*w] = 0
			e.hits[2*w+1] = 0
			e.commit(int32(w), once, twice, round)
		}
		return
	}
	e.touched = e.touched[:0]
	for _, v := range e.txUnion {
		m := e.txMask[v]
		for _, w := range e.g.Neighbors(v) {
			if e.done[w] != 0 {
				continue
			}
			t := e.hits[2*w]
			if t == 0 {
				e.touched = append(e.touched, w)
			}
			e.hits[2*w+1] |= t & m
			e.hits[2*w] = t | m
		}
	}
	slices.Sort(e.touched)
	for _, w := range e.touched {
		once := e.hits[2*w]
		twice := e.hits[2*w+1]
		e.hits[2*w] = 0
		e.hits[2*w+1] = 0
		e.commit(w, once, twice, round)
	}
}

// compactLive drops newly saturated nodes from the live-listener list
// (order-preserving, so gather commits stay ascending) and refreshes
// liveDeg, the exact gather visit count.
func (e *Engine) compactLive() {
	kept := e.live[:0]
	deg := 0
	for _, w := range e.live {
		if e.done[w] == 0 {
			kept = append(kept, w)
			deg += e.g.Degree(w)
		}
	}
	e.live = kept
	e.liveDeg = deg
}

// commit classifies one listener's hits and applies the per-lane state
// updates for its newly informed lanes.
func (e *Engine) commit(w int32, once, twice uint64, round int) {
	// Exactly one hit, and not transmitting in that lane itself.
	recv := once &^ twice &^ e.txMask[w]
	if e.observed {
		e.ok.add(recv)
		e.col.add(twice &^ e.txMask[w])
	}
	newBits := recv &^ e.informed[w]
	if newBits == 0 {
		return
	}
	if e.informed[w] == 0 {
		e.unionInformed = append(e.unionInformed, w)
	}
	ni := e.informed[w] | newBits
	e.informed[w] = ni
	if !e.observed && ni&e.active == e.active {
		e.done[w] = 1
		e.doneDirty = true
	}
	for k, cutoff := range e.plan.cutoffs {
		if int32(round) <= cutoff {
			if e.cohortPlane[k][w] == 0 {
				e.cohortUnion[k] = append(e.cohortUnion[k], w)
			}
			e.cohortPlane[k][w] |= newBits
		}
	}
	for nb := newBits; nb != 0; nb &= nb - 1 {
		i := bits.TrailingZeros64(nb)
		e.elig[i] = append(e.elig[i], w)
		for k, cutoff := range e.plan.cutoffs {
			if int32(round) <= cutoff {
				e.eligCohort[k][i] = append(e.eligCohort[k][i], w)
			}
		}
		e.informedCnt[i]++
		if int(e.informedCnt[i]) == e.g.N() {
			e.doneRound[i] = int32(round)
			e.active &^= uint64(1) << uint(i)
		}
	}
}

// beginRuns opens every observed lane's run and its summary.
func (e *Engine) beginRuns(width int) {
	n := e.g.N()
	for i := 0; i < width; i++ {
		if e.obs[i] == nil {
			continue
		}
		sources := int(e.informedCnt[i])
		e.runs[i] = trace.Summary{N: n, Informed: sources}
		e.obs[i].BeginRun(trace.RunInfo{N: n, M: e.g.M(), Sources: sources, MaxRounds: e.plan.maxRounds})
	}
}

// countTransmitters adds the round's transmit masks to the per-lane
// transmitter counts and, before the round is classified, hands each
// lane whose observer asks for it that lane's transmitter set.
func (e *Engine) countTransmitters(round int, active uint64) {
	for _, v := range e.txUnion {
		e.tx.add(e.txMask[v])
	}
	for a := active; a != 0; a &= a - 1 {
		i := bits.TrailingZeros64(a)
		if e.txObs[i] == nil {
			continue
		}
		if !e.txAscending {
			// A sparse round's txUnion is in first-pick order, which
			// depends on the other lanes' picks; ascending order keeps
			// each lane's set lane-pure. Nothing else depends on it.
			slices.Sort(e.txUnion)
			e.txAscending = true
		}
		bit := uint64(1) << uint(i)
		set := e.laneTransmitter[:0]
		for _, v := range e.txUnion {
			if e.txMask[v]&bit != 0 {
				set = append(set, v)
			}
		}
		e.laneTransmitter = set
		e.txObs[i].RoundTransmitters(round, set)
	}
}

// emitRound unpacks the round's per-lane counts, sends every observed
// lane that was active this round its RoundRecord, and clears the
// counters. Silent is the remainder of the node partition, as in the
// scalar engine.
func (e *Engine) emitRound(round int, active uint64) {
	n := e.g.N()
	planes := bits.Len(uint(n)) // every count is at most n
	for a := active; a != 0; a &= a - 1 {
		i := bits.TrailingZeros64(a)
		if e.obs[i] == nil {
			continue
		}
		s := &e.runs[i]
		informed := int(e.informedCnt[i])
		rec := trace.RoundRecord{
			Round:         round,
			Transmitters:  e.tx.lane(i, planes),
			Successes:     e.ok.lane(i, planes),
			Collisions:    e.col.lane(i, planes),
			NewlyInformed: informed - s.Informed,
			Informed:      informed,
		}
		rec.Silent = n - rec.Transmitters - rec.Successes - rec.Collisions
		s.Rounds = round
		s.Transmissions += rec.Transmitters
		s.Successes += rec.Successes
		s.Collisions += rec.Collisions
		s.NewlyInformed += rec.NewlyInformed
		s.Informed = informed
		e.obs[i].Round(rec)
	}
	clear(e.tx[:planes])
	clear(e.ok[:planes])
	clear(e.col[:planes])
}

// endRuns closes every observed lane's run, also when it was canceled.
func (e *Engine) endRuns(width int) {
	for i := 0; i < width; i++ {
		if e.obs[i] == nil {
			continue
		}
		s := e.runs[i]
		s.Completed = s.Informed == s.N
		e.obs[i].EndRun(s)
	}
}

// RunBlocks shards len(seeds) trials into lane blocks of the given width
// (0 or out-of-range means Width) and runs them on a bounded worker pool
// (workers <= 0 means GOMAXPROCS), one new Engine per worker. out[i]
// receives trial i's completion round, plan.MaxRounds()+1 if unfinished.
// Workers write disjoint ranges of out, and lane purity makes each trial
// a pure function of its seed, so out is bitwise independent of width,
// worker count and GOMAXPROCS. On cancellation the first error (wrapping
// radio.ErrCanceled) is returned and out is meaningless.
func RunBlocks(ctx context.Context, g *graph.Graph, sources []int32, plan *Plan, seeds []uint64, width, workers int, out []int) error {
	if width <= 0 || width > Width {
		width = Width
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	engines := make([]*Engine, min(workers, (len(seeds)+width-1)/width))
	for w := range engines {
		engines[w] = NewEngine(g, sources, plan)
	}
	return runBlocks(ctx, engines, seeds, nil, width, out)
}

// RunBlocksOn is RunBlocks on caller-supplied engines, in blocks of Width
// seeds with one worker per engine (engines beyond the block count stay
// idle), with obs[i] observing trial i (nil obs: no trial is observed).
// The engines must be distinct and already aimed at the sources and plan
// to run; they stay the caller's, reusable after the call whether or not
// it was canceled. Each block sets its engine's observers, and the
// engines keep those of their last block until the next Observe.
func RunBlocksOn(ctx context.Context, engines []*Engine, seeds []uint64, obs []trace.Observer, out []int) error {
	return runBlocks(ctx, engines, seeds, obs, Width, out)
}

// runBlocks is the block scheduler behind RunBlocks and RunBlocksOn.
func runBlocks(ctx context.Context, engines []*Engine, seeds []uint64, obs []trace.Observer, width int, out []int) error {
	if len(out) != len(seeds) {
		panic("lanes: RunBlocks needs len(out) == len(seeds)")
	}
	if obs != nil && len(obs) != len(seeds) {
		panic("lanes: RunBlocksOn needs len(obs) == len(seeds)")
	}
	blocks := (len(seeds) + width - 1) / width
	if blocks == 0 {
		return nil
	}
	if len(engines) == 0 {
		panic("lanes: RunBlocksOn needs at least one engine")
	}
	workers := min(len(engines), blocks)
	runBlock := func(e *Engine, b int) error {
		lo := b * width
		hi := min(lo+width, len(seeds))
		var blockObs []trace.Observer
		if obs != nil {
			blockObs = obs[lo:hi]
		}
		e.Observe(blockObs)
		return e.RunContext(ctx, seeds[lo:hi], out[lo:hi])
	}
	if workers == 1 {
		e := engines[0]
		for b := 0; b < blocks; b++ {
			if err := runBlock(e, b); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	ch := make(chan int)
	for _, e := range engines[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ch {
				if err := runBlock(e, b); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for b := 0; b < blocks; b++ {
		ch <- b
	}
	close(ch)
	wg.Wait()
	return firstErr
}

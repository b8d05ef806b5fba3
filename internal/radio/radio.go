// Package radio implements the synchronous radio-network model of the
// paper (§1.1) exactly:
//
//   - Communication proceeds in synchronous steps (rounds).
//   - In each step every node either transmits or listens.
//   - A transmitted message reaches all neighbours of the transmitter.
//   - A listening node w RECEIVES a message in a step iff exactly one of
//     its neighbours transmits in that step. If two or more neighbours
//     transmit, a collision occurs at w and w receives nothing. Nodes get
//     no collision detection: a collision is indistinguishable from
//     silence.
//   - A transmitting node receives nothing in that step.
//
// The package provides a low-level Engine that advances one round at a
// time given an explicit transmitter set (used by centralized schedules and
// by the lower-bound harnesses) and four runners on top of it: a protocol
// loop for fully distributed randomized protocols in which every informed
// node locally decides each round whether to transmit
// (Engine.RunProtocolContext, and BroadcastTimeOnContext for the
// completion round alone), schedule replay (ExecuteScheduleOnContext) and
// the collision-detection variant (RunCDProtocolContext). Everything
// outside the engine runs them through internal/exec. Every round's
// reception step is the Reception kernel, which the gossip and
// k-broadcast simulators share.
package radio

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// TransmitterPolicy controls how the engine treats transmitters that do not
// hold the message yet.
type TransmitterPolicy int

const (
	// StrictInformed rejects any schedule that asks an uninformed node to
	// transmit; this is the physical model (an uninformed node has nothing
	// to send). Engine.Round returns an error in this case.
	StrictInformed TransmitterPolicy = iota
	// FilterUninformed silently drops uninformed transmitters from the
	// set. Useful when replaying randomized schedules whose sets were
	// drawn without knowledge of the information frontier.
	FilterUninformed
	// MagicTransmitters lets uninformed nodes transmit the message anyway.
	// This is the RELAXED model used inside the proof of Theorem 6, where
	// the adversary's transmit sets are charged "regardless of the status
	// of the transmitting nodes"; it can only help the broadcast, so lower
	// bounds measured under it remain valid lower bounds.
	MagicTransmitters
)

// NotInformed is the value of InformedAt for nodes that have not received
// the message.
const NotInformed int32 = -1

// Stats accumulates counters over the rounds executed by an Engine. It is
// a view of the engine's built-in trace.Counters (see Engine.Stats): the
// engine accounts every round through the same trace.RoundRecord it hands
// to an attached observer, so Stats and observer-side totals cannot drift.
type Stats struct {
	Rounds        int // rounds executed
	Transmissions int // total node-transmissions
	Deliveries    int // listening nodes that received the message (incl. already-informed)
	NewlyInformed int // uninformed nodes that became informed
	Collisions    int // listening-node-rounds lost to >=2 transmitting neighbours
}

// Engine simulates the radio model on a fixed graph from a single source.
// It is not safe for concurrent use; run one Engine per goroutine.
type Engine struct {
	g        *graph.Graph
	src      int32
	policy   TransmitterPolicy
	informed []bool
	// informedAt[v] is the round in which v was informed (0 for the
	// source), or NotInformed.
	informedAt  []int32
	numInformed int
	// rx is the reception step every round runs (see Reception).
	rx           *Reception
	transmitting []bool
	txList       []int32
	round        int
	// counters is the engine's accounting, fed one trace.RoundRecord per
	// round by the same code path that notifies obs; Stats() reads from it.
	counters trace.Counters
	// obs, when non-nil, receives a trace.RoundRecord after every round.
	// The nil case costs one branch per round — the untraced fast path
	// allocates nothing (see reuse_test.go and BenchmarkBroadcastReuse).
	obs trace.Observer
	// txObs is obs's trace.TransmitterObserver extension when it declares
	// one, cached at Attach time so Round pays no per-round assertion.
	txObs trace.TransmitterObserver
	// extraSources holds the initial informed set beyond src for engines
	// built by NewEngineMulti, so Reset restores the full set.
	extraSources []int32
	newly        []int32 // scratch reused across rounds
	txScratch    []int32 // scratch transmit set for the protocol runners
	// Sampled-transmitter fast path (see UniformProtocol). The protocol
	// runner keeps incremental per-cohort eligible lists so a uniform round
	// draws k ~ Binomial(|eligible|, q) transmitters in O(k) instead of
	// scanning all n nodes and flipping one coin per informed node. The
	// lists are rebuilt lazily at the start of each protocol run and
	// appended from the newly-informed set after every round, so
	// steady-state rounds allocate nothing.
	eligAll      []int32 // every informed node, in informed order
	eligAllOK    bool
	eligCohort   []int32 // informed nodes with informedAt <= eligCutoff
	eligCutoff   int32
	eligCohortOK bool
	// Result-buffer reuse (see SetResultReuse): when on, resultOf fills
	// Result.InformedAt from resultBuf instead of a fresh per-run copy.
	reuseResult bool
	resultBuf   []int32
}

// NewEngine returns an engine on g in which only src knows the message.
// Round 0 is the initial state; the first executed round is round 1.
func NewEngine(g *graph.Graph, src int32, policy TransmitterPolicy) *Engine {
	n := g.N()
	if src < 0 || int(src) >= n {
		panic(fmt.Sprintf("radio: source %d out of range [0,%d)", src, n))
	}
	e := &Engine{
		g:            g,
		src:          src,
		policy:       policy,
		informed:     make([]bool, n),
		informedAt:   make([]int32, n),
		rx:           NewReception(g),
		transmitting: make([]bool, n),
		// Round lists every listener that heard the message in newly before
		// filtering it in place, so it may need all n slots; sizing it once
		// here keeps rounds from growing it step by step.
		newly: make([]int32, 0, n),
	}
	for i := range e.informedAt {
		e.informedAt[i] = NotInformed
	}
	e.informed[src] = true
	e.informedAt[src] = 0
	e.numInformed = 1
	return e
}

// Reset returns the engine to its initial state — the full initial
// informed set: the source, plus every extra source for engines built by
// NewEngineMulti — without reallocating, making one engine reusable
// across many trials on the same graph.
func (e *Engine) Reset() {
	for i := range e.informed {
		e.informed[i] = false
		e.informedAt[i] = NotInformed
	}
	e.informed[e.src] = true
	e.informedAt[e.src] = 0
	e.numInformed = 1
	for _, s := range e.extraSources {
		if !e.informed[s] {
			e.informed[s] = true
			e.informedAt[s] = 0
			e.numInformed++
		}
	}
	e.round = 0
	e.counters.Reset()
	// Eligible lists describe a run that is over; the next protocol run
	// rebuilds them from the informed set.
	e.eligAllOK, e.eligCohortOK = false, false
	// The transmit marks are empty after any completed or failed Round, but
	// clear them anyway so Reset restores a pristine engine unconditionally.
	e.clearTransmitMarks()
}

// ResetFor is Reset with a different broadcast source, so one engine can
// sweep every source of a graph without reallocating. The initial
// informed set becomes exactly {src}: extra sources of a NewEngineMulti
// engine are discarded (a source sweep is a single-source notion).
func (e *Engine) ResetFor(src int32) {
	if src < 0 || int(src) >= e.g.N() {
		panic(fmt.Sprintf("radio: source %d out of range [0,%d)", src, e.g.N()))
	}
	e.src = src
	e.extraSources = nil
	e.Reset()
}

// SetSources re-targets the engine at a new initial informed set without
// reallocating: sources[0] becomes the primary source and the rest the
// extra sources (as in NewEngineMulti), then the engine is Reset. Serving
// paths that pool one engine per cached graph use this to repoint the
// pooled engine at each request's sources. It panics on an empty or
// out-of-range source list.
func (e *Engine) SetSources(sources []int32) {
	if len(sources) == 0 {
		panic("radio: SetSources needs at least one source")
	}
	for _, s := range sources {
		if s < 0 || int(s) >= e.g.N() {
			panic(fmt.Sprintf("radio: source %d out of range [0,%d)", s, e.g.N()))
		}
	}
	e.src = sources[0]
	e.extraSources = append(e.extraSources[:0], sources[1:]...)
	e.Reset()
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Source returns the broadcast source.
func (e *Engine) Source() int32 { return e.src }

// RoundCount returns the number of rounds executed so far.
func (e *Engine) RoundCount() int { return e.round }

// Stats returns the accumulated counters, a view of the engine's built-in
// trace.Counters (see Counters).
func (e *Engine) Stats() Stats {
	return Stats{
		Rounds:        e.counters.Rounds,
		Transmissions: e.counters.Transmissions,
		Deliveries:    e.counters.Successes,
		NewlyInformed: e.counters.NewlyInformed,
		Collisions:    e.counters.Collisions,
	}
}

// Counters returns the engine's built-in aggregate metrics since the last
// Reset, including the silent-listener total that Stats omits.
func (e *Engine) Counters() trace.Counters { return e.counters }

// Attach sets the engine's observer: after every executed round the
// engine sends it a trace.RoundRecord, and the runners
// (RunProtocolContext, ExecuteScheduleOnContext, BroadcastTimeOnContext,
// RunCDProtocolContext) bracket each run with BeginRun/EndRun
// notifications. Attach(nil) detaches. The attached observer survives
// Reset/ResetFor, so one observer can aggregate across many trials on a
// reused engine.
//
// With no observer attached the per-round overhead is a single nil check;
// the allocation-free fast path is unchanged. An observer that also
// implements trace.TransmitterObserver additionally receives every
// round's effective transmitter set (the extension is detected here, not
// per round).
func (e *Engine) Attach(obs trace.Observer) {
	e.obs = obs
	e.txObs, _ = obs.(trace.TransmitterObserver)
}

// Observer returns the currently attached observer, or nil.
func (e *Engine) Observer() trace.Observer { return e.obs }

// Informed reports whether v holds the message.
func (e *Engine) Informed(v int32) bool { return e.informed[v] }

// InformedAt returns the round in which v was informed, or NotInformed.
func (e *Engine) InformedAt(v int32) int32 { return e.informedAt[v] }

// InformedCount returns the number of informed nodes.
func (e *Engine) InformedCount() int { return e.numInformed }

// Done reports whether every node is informed.
func (e *Engine) Done() bool { return e.numInformed == e.g.N() }

// InformedTimes returns a copy of the informed-at array.
func (e *Engine) InformedTimes() []int32 {
	out := make([]int32, len(e.informedAt))
	copy(out, e.informedAt)
	return out
}

// AppendInformedTimes appends the informed-at array to dst and returns the
// extended slice. It is the allocation-free sibling of InformedTimes for
// collectors in hot trial loops: passing a reused dst[:0] copies the n
// per-node times without a fresh allocation per call.
func (e *Engine) AppendInformedTimes(dst []int32) []int32 {
	return append(dst, e.informedAt...)
}

// AppendInformed appends all informed vertices to dst.
func (e *Engine) AppendInformed(dst []int32) []int32 {
	for v, ok := range e.informed {
		if ok {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// AppendUninformed appends all uninformed vertices to dst.
func (e *Engine) AppendUninformed(dst []int32) []int32 {
	for v, ok := range e.informed {
		if !ok {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// ErrUninformedTransmitter is returned by Round under StrictInformed when
// the schedule contains a transmitter that does not yet hold the message.
// It wraps ErrScheduleMismatch, so errors.Is matches either sentinel.
var ErrUninformedTransmitter = fmt.Errorf("%w: schedule uses uninformed transmitter", ErrScheduleMismatch)

// Round executes one synchronous step in which exactly the nodes of
// transmitters transmit (subject to the engine's TransmitterPolicy) and
// every other node listens. It returns the list of nodes that became
// informed in this round; the returned slice is reused by the next call.
// The list is ascending on dense rounds and in first-touch order on sparse
// ones (see Reception).
//
// Duplicate entries in transmitters are tolerated (a node transmits once).
func (e *Engine) Round(transmitters []int32) ([]int32, error) {
	return e.step(transmitters, nil)
}

// step is Round that, when fb is non-nil, also fills fb with every node's
// observation (see RoundWithFeedback) from the same reception planes.
func (e *Engine) step(transmitters []int32, fb []Feedback) ([]int32, error) {
	// Mark transmitters, applying the policy. The round is not committed
	// (round counter, stats) until the whole set validates, and both error
	// returns clear the transmit marks, so a failed call leaves the engine
	// exactly as it was: a round that never executed is not counted and
	// cannot corrupt collision accounting in later rounds.
	e.txList = e.txList[:0]
	for _, v := range transmitters {
		if v < 0 || int(v) >= len(e.informed) {
			e.clearTransmitMarks()
			return nil, fmt.Errorf("%w: transmitter %d out of range", ErrScheduleMismatch, v)
		}
		if !e.informed[v] {
			switch e.policy {
			case StrictInformed:
				e.clearTransmitMarks()
				return nil, fmt.Errorf("%w: node %d in round %d", ErrUninformedTransmitter, v, e.round+1)
			case FilterUninformed:
				continue
			case MagicTransmitters:
				// allowed through
			}
		}
		if !e.transmitting[v] {
			e.transmitting[v] = true
			e.txList = append(e.txList, v)
		}
	}
	e.round++
	if e.txObs != nil {
		// The round is committed; hand the effective (policy-filtered,
		// deduplicated) transmitter set to the extended observer before
		// classification. The slice is engine scratch: valid only for the
		// duration of the call.
		e.txObs.RoundTransmitters(e.round, e.txList)
	}

	e.rx.Scatter(e.txList)
	// Silence, Message and Collision are consecutive, in hit-count order.
	for w := range fb {
		if e.transmitting[w] {
			fb[w] = FeedbackNone
		} else {
			fb[w] = FeedbackSilence + Feedback(e.rx.Class(int32(w)))
		}
	}
	// Every listener that heard exactly one transmitter received the
	// message; the uninformed ones among them become informed, in the
	// order Collect lists them.
	heard, collisions := e.rx.Collect(e.txList, e.newly[:0])
	successes := len(heard)
	newly, informed, at := heard[:0], e.informed, int32(e.round)
	informedAt := e.informedAt[:len(informed)]
	for _, w := range heard {
		if !informed[w] {
			informed[w] = true
			informedAt[w] = at
			newly = append(newly, w)
		}
	}
	e.newly = newly
	e.numInformed += len(newly)

	// Account the round and notify the observer through the same record,
	// so Stats() and observer totals are definitionally consistent. Every
	// node transmits, cleanly receives, collides, or hears silence.
	rec := trace.RoundRecord{
		Round:         e.round,
		Transmitters:  len(e.txList),
		Successes:     successes,
		Collisions:    collisions,
		Silent:        e.g.N() - len(e.txList) - successes - collisions,
		NewlyInformed: len(e.newly),
		Informed:      e.numInformed,
	}
	e.counters.Apply(rec)
	if e.obs != nil {
		e.obs.Round(rec)
	}

	e.clearTransmitMarks()
	return e.newly, nil
}

// observeBegin notifies an attached observer that a run is starting; the
// run helpers call it after any Reset, so Sources reflects the initially
// informed set.
func (e *Engine) observeBegin(maxRounds int) {
	if e.obs == nil {
		return
	}
	e.obs.BeginRun(trace.RunInfo{N: e.g.N(), M: e.g.M(), Sources: e.numInformed, MaxRounds: maxRounds})
}

// observeEnd notifies an attached observer that the run is over. It fires
// on error aborts too, so an observer that saw BeginRun always sees a
// matching EndRun (JSONL writers flush there).
func (e *Engine) observeEnd() {
	if e.obs == nil {
		return
	}
	c := e.counters
	e.obs.EndRun(trace.Summary{
		Completed:     e.Done(),
		Rounds:        e.round,
		Informed:      e.numInformed,
		N:             e.g.N(),
		Transmissions: c.Transmissions,
		Successes:     c.Successes,
		Collisions:    c.Collisions,
		NewlyInformed: c.NewlyInformed,
	})
}

func (e *Engine) clearTransmitMarks() {
	for _, v := range e.txList {
		e.transmitting[v] = false
	}
	e.txList = e.txList[:0]
}

// Schedule is an explicit centralized broadcast schedule: Sets[t] is the
// set of nodes scheduled to transmit in round t+1.
type Schedule struct {
	Sets [][]int32
}

// Len returns the number of rounds in the schedule.
func (s *Schedule) Len() int { return len(s.Sets) }

// Result summarises a complete simulation.
type Result struct {
	Completed  bool    // every node informed
	Rounds     int     // rounds executed until completion (or budget exhausted)
	Informed   int     // informed nodes at the end
	N          int     // graph size
	InformedAt []int32 // per-node informed round (NotInformed if never)
	Stats      Stats
}

// ExecuteScheduleOnContext replays the schedule on the engine from its
// CURRENT state — no reset — under the engine's policy, with a
// cancellation check between rounds. Execution stops early once all
// nodes are informed; Rounds then reports the first round after which
// the broadcast was complete. Replay consumes no randomness, so the
// check cannot perturb results. On cancellation the partial Result is
// returned alongside an error wrapping ErrCanceled and the context's
// cause; a schedule the model rejects returns the zero Result.
func ExecuteScheduleOnContext(ctx context.Context, e *Engine, s *Schedule) (Result, error) {
	e.observeBegin(s.Len())
	defer e.observeEnd()
	for _, set := range s.Sets {
		if e.Done() {
			break
		}
		if ctx.Err() != nil {
			return resultOf(e), Canceled(ctx)
		}
		if _, err := e.Round(set); err != nil {
			return Result{}, err
		}
	}
	return resultOf(e), nil
}

// SetResultReuse toggles result-buffer reuse: when on, Results built by
// RunProtocolContext and ExecuteScheduleOnContext fill InformedAt from an
// engine-owned buffer that the engine's NEXT run overwrites, instead of
// a fresh O(n) copy per run. Engine-pooling callers (repro.WithEngine,
// the serving layer) turn this on so steady-state requests allocate
// nothing proportional to n; leave it off when a Result must outlive the
// engine's next run.
func (e *Engine) SetResultReuse(on bool) { e.reuseResult = on }

func resultOf(e *Engine) Result {
	var at []int32
	if e.reuseResult {
		e.resultBuf = e.AppendInformedTimes(e.resultBuf[:0])
		at = e.resultBuf
	} else {
		at = e.InformedTimes()
	}
	return Result{
		Completed:  e.Done(),
		Rounds:     e.round,
		Informed:   e.numInformed,
		N:          e.g.N(),
		InformedAt: at,
		Stats:      e.Stats(),
	}
}

// Protocol is a fully distributed randomized broadcasting protocol. In
// every round, the engine asks each INFORMED node whether it transmits;
// uninformed nodes always listen (they have nothing to send). The decision
// may use only information available locally: the global round number
// (nodes share a synchronous clock), the round at which the node was
// informed, the node's identity/degree, and private randomness — matching
// the paper's model in which nodes know only n, p and the time t.
type Protocol interface {
	// Transmit reports whether node v transmits in round (engine round
	// numbering starts at 1). informedAt is the round v was informed.
	Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool
}

// ProtocolFunc adapts a function to the Protocol interface.
type ProtocolFunc func(v int32, round int, informedAt int32, rng *xrand.Rand) bool

// Transmit implements Protocol.
func (f ProtocolFunc) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return f(v, round, informedAt, rng)
}

// Cohort selects which informed nodes are eligible to transmit in a
// uniform round. The zero value (AllInformed) makes every informed node
// eligible; InformedBy(c) restricts eligibility to nodes informed in
// rounds <= c — the Theorem-7 restricted-pool reading, in which only the
// phase-one informed set transmits during the selective phase.
type Cohort struct {
	cutoff     int32
	restricted bool
}

// AllInformed is the cohort of every informed node.
var AllInformed = Cohort{}

// InformedBy returns the cohort of nodes informed in rounds <= cutoff.
func InformedBy(cutoff int32) Cohort { return Cohort{cutoff: cutoff, restricted: true} }

// Contains reports whether a node informed at round informedAt belongs to
// the cohort. Uninformed nodes (informedAt == NotInformed) never do.
func (c Cohort) Contains(informedAt int32) bool {
	return informedAt != NotInformed && (!c.restricted || informedAt <= c.cutoff)
}

// Cutoff exposes the cohort's shape to engines that maintain their own
// eligibility structures (the lane engine keeps one bitplane per distinct
// cutoff): restricted reports whether the cohort is an InformedBy cohort,
// and cutoff is its bound when it is. For AllInformed, restricted is false
// and cutoff is meaningless.
func (c Cohort) Cutoff() (cutoff int32, restricted bool) {
	return c.cutoff, c.restricted
}

// UniformProtocol is an optional capability of a Protocol: a protocol
// implements it to declare that in some rounds every eligible node
// transmits independently with the SAME probability q. For such rounds
// the engine's protocol runner skips the per-node Transmit calls and
// instead draws the number of transmitters k ~ Binomial(|cohort|, q) and
// selects k distinct cohort members by partial Fisher–Yates — O(k)
// expected work per round instead of O(n) — which is distributionally
// identical to n independent Bernoulli(q) decisions.
//
// The fast path consumes a different (much shorter) randomness stream
// than per-node sampling, so individual runs differ bit-for-bit between
// the two paths while their distributions agree. The capability is the
// only switch: a protocol that does not declare it runs the frozen
// per-node stream, and struct{ Protocol }{p} (or ProtocolFunc(p.Transmit))
// hides it from any protocol p.
type UniformProtocol interface {
	Protocol
	// RoundProb reports whether the given round is uniform: every node of
	// the cohort transmits with probability q, independently. ok = false
	// makes the engine fall back to per-node Transmit calls for that
	// round, so protocols may mix uniform and non-uniform rounds freely.
	// The engine calls RoundProb at most once per round; it must be
	// deterministic and consume no randomness.
	RoundProb(round int) (q float64, cohort Cohort, ok bool)
}

// runProtocol drives the engine under the protocol from its current
// state until completion, the round budget or cancellation, reusing the
// engine's scratch transmit set so steady-state rounds allocate nothing.
// When p implements UniformProtocol, uniform rounds draw their transmitter set by binomial cohort
// sampling in O(k) instead of O(n). The cancellation check between
// rounds consumes no randomness, so an uncanceled run is bit-for-bit
// identical whatever the context. On cancellation the engine keeps its
// partial state — callers build the partial Result from it — and the
// returned error wraps ErrCanceled together with the context's cause.
func (e *Engine) runProtocol(ctx context.Context, p Protocol, maxRounds int, rng *xrand.Rand) error {
	e.observeBegin(maxRounds)
	defer e.observeEnd()
	up, _ := p.(UniformProtocol)
	if up != nil {
		// Rebuild the eligible lists lazily for this run's informed set
		// (the engine may have been driven manually since the last reset).
		e.eligAllOK, e.eligCohortOK = false, false
	}
	for e.round < maxRounds && !e.Done() {
		if ctx.Err() != nil {
			return Canceled(ctx)
		}
		round := e.round + 1
		var tx []int32
		sampled := false
		if up != nil {
			if q, cohort, ok := up.RoundProb(round); ok {
				tx = SampleTransmitters(e.eligible(cohort), q, rng)
				sampled = true
			}
		}
		if !sampled {
			tx = e.txScratch[:0]
			for v, inf := range e.informed {
				if !inf {
					continue
				}
				if p.Transmit(int32(v), round, e.informedAt[v], rng) {
					tx = append(tx, int32(v))
				}
			}
			e.txScratch = tx
		}
		newly, err := e.Round(tx)
		if err != nil {
			// Cannot happen: we only offer informed nodes.
			panic(err)
		}
		if up != nil {
			e.appendEligible(newly)
		}
	}
	return nil
}

// SampleTransmitters draws a uniform round's transmitter set: every node
// of elig independently with probability q, realised as one
// Binomial(len(elig), q) draw plus a partial Fisher–Yates over the
// caller-owned list (q >= 1 takes every node and q <= 0 none, both
// without drawing). The list is permuted in place and the returned
// prefix aliases it. Every simulator that honours UniformProtocol
// samples through this function.
func SampleTransmitters(elig []int32, q float64, rng *xrand.Rand) []int32 {
	if q >= 1 {
		return elig
	}
	if q <= 0 {
		return elig[:0]
	}
	k := rng.Binomial(len(elig), q)
	rng.PartialShuffle(elig, k)
	return elig[:k]
}

// eligible returns the engine-owned list of cohort members, rebuilding it
// from the informed set on first use (or when the requested cutoff
// changes); appendEligible keeps it current afterwards. The list's order
// is immaterial — SampleTransmitters permutes it in place — so each list
// is maintained purely as a set.
func (e *Engine) eligible(cohort Cohort) []int32 {
	if !cohort.restricted {
		if !e.eligAllOK {
			e.eligAll = e.eligibleBuf(e.eligAll)
			for v, inf := range e.informed {
				if inf {
					e.eligAll = append(e.eligAll, int32(v))
				}
			}
			e.eligAllOK = true
		}
		return e.eligAll
	}
	if !e.eligCohortOK || e.eligCutoff != cohort.cutoff {
		e.eligCohort = e.eligibleBuf(e.eligCohort)
		for v, at := range e.informedAt {
			if at != NotInformed && at <= cohort.cutoff {
				e.eligCohort = append(e.eligCohort, int32(v))
			}
		}
		e.eligCutoff = cohort.cutoff
		e.eligCohortOK = true
	}
	return e.eligCohort
}

// eligibleBuf empties an eligible list for a rebuild. A list holds
// informed nodes only, so capacity n, allocated on the first rebuild,
// lets appendEligible grow it without reallocating; engines that never
// run a uniform protocol (schedule replay) allocate nothing.
func (e *Engine) eligibleBuf(list []int32) []int32 {
	if n := e.g.N(); cap(list) < n {
		return make([]int32, 0, n)
	}
	return list[:0]
}

// appendEligible folds the nodes newly informed by the last round into
// the maintained eligible lists (newly informed nodes have
// informedAt == e.round).
func (e *Engine) appendEligible(newly []int32) {
	if e.eligAllOK {
		e.eligAll = append(e.eligAll, newly...)
	}
	if e.eligCohortOK && int32(e.round) <= e.eligCutoff {
		e.eligCohort = append(e.eligCohort, newly...)
	}
}

// RunProtocolContext drives p on the engine's CURRENT state — no reset —
// until every node is informed or maxRounds rounds have run, and returns
// the result. Cancellation is cooperative: the round loop checks ctx
// between rounds and stops as soon as it is canceled, returning the
// partial Result together with an error wrapping ErrCanceled and the
// context's cause. The check consumes no randomness, so an uncanceled
// context yields bit-for-bit the same run as context.Background().
func (e *Engine) RunProtocolContext(ctx context.Context, p Protocol, maxRounds int, rng *xrand.Rand) (Result, error) {
	err := e.runProtocol(ctx, p, maxRounds, rng)
	return resultOf(e), err
}

// BroadcastTimeOnContext resets the engine, drives p on it like
// RunProtocolContext and returns only the completion round, or
// maxRounds+1 if the broadcast did not finish within the budget — a
// sentinel that keeps incomplete runs visibly worse than any complete
// run when aggregating. It builds no Result, so a trial allocates
// nothing. A canceled run reports the sentinel alongside the wrapping
// error, so aggregators that ignore the error still see a sane value.
func BroadcastTimeOnContext(ctx context.Context, e *Engine, p Protocol, maxRounds int, rng *xrand.Rand) (int, error) {
	e.Reset()
	err := e.runProtocol(ctx, p, maxRounds, rng)
	if !e.Done() {
		return maxRounds + 1, err
	}
	return e.round, err
}

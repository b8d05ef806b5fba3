// Package oracle is a deliberately naive reference implementation of the
// synchronous radio-network model, used only for correctness tooling: the
// differential harness in this package cross-checks the optimized
// internal/radio engine against it over randomized (graph, protocol,
// seed) cases.
//
// The oracle implements the model straight from the paper's definition
// (§1.1) with none of the engine's machinery — no CSR scatter tricks, no
// reception bitplanes, no touched lists, no dense/sparse round
// classification, no sampled-transmitter draws, no scratch reuse. Each
// round costs O(n · |tx| · log Δ): for every listening node it counts its
// transmitting neighbours one HasEdge probe at a time and applies the
// rule "receive iff exactly one neighbour transmits" literally. Slow and
// obviously correct is the whole point: every optimization in
// internal/radio must be behaviourally invisible against this baseline.
//
// The oracle mirrors the engine's public semantics exactly — transmitter
// policies, duplicate tolerance, error behaviour (a failed round is not
// committed), per-round trace.RoundRecord accounting, and the per-node
// protocol runner's randomness-consumption order — so a run with the same
// inputs and the same *xrand.Rand stream must match the engine
// bit-for-bit, not merely distributionally.
package oracle

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Engine is the naive reference simulator. Unlike radio.Engine it keeps
// no scratch whatsoever: every round allocates freshly, so no state can
// leak between rounds by construction.
type Engine struct {
	g          *graph.Graph
	policy     radio.TransmitterPolicy
	sources    []int32
	informed   []bool
	informedAt []int32
	round      int

	// Counters holds the run's totals, tallied literally in Round rather
	// than through trace.Counters.Apply, so the engine's accounting step is
	// checked too. Runs and Completed stay zero, as in the engine's.
	trace.Counters

	// Records holds one trace.RoundRecord per executed round, for
	// record-level comparison against an engine-attached trace.Recorder.
	Records []trace.RoundRecord
}

// New returns an oracle on g in which exactly the listed sources know the
// message at round 0. Duplicate sources are tolerated.
func New(g *graph.Graph, sources []int32, policy radio.TransmitterPolicy) *Engine {
	if len(sources) == 0 {
		panic("oracle: need at least one source")
	}
	n := g.N()
	o := &Engine{
		g:          g,
		policy:     policy,
		informed:   make([]bool, n),
		informedAt: make([]int32, n),
	}
	for i := range o.informedAt {
		o.informedAt[i] = radio.NotInformed
	}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			panic(fmt.Sprintf("oracle: source %d out of range [0,%d)", s, n))
		}
		if !o.informed[s] {
			o.informed[s] = true
			o.informedAt[s] = 0
			o.sources = append(o.sources, s)
		}
	}
	return o
}

// Informed reports whether v holds the message.
func (o *Engine) Informed(v int32) bool { return o.informed[v] }

// InformedAt returns the round v was informed, or radio.NotInformed.
func (o *Engine) InformedAt(v int32) int32 { return o.informedAt[v] }

// InformedCount returns the number of informed nodes.
func (o *Engine) InformedCount() int {
	c := 0
	for _, ok := range o.informed {
		if ok {
			c++
		}
	}
	return c
}

// Done reports whether every node is informed.
func (o *Engine) Done() bool { return o.InformedCount() == o.g.N() }

// RoundCount returns the number of committed rounds.
func (o *Engine) RoundCount() int { return o.round }

// InformedTimes returns a copy of the per-node informed rounds.
func (o *Engine) InformedTimes() []int32 {
	out := make([]int32, len(o.informedAt))
	copy(out, o.informedAt)
	return out
}

// effectiveTransmitters validates the raw transmitter list against the
// policy and returns the deduplicated effective set, exactly as
// radio.Engine.Round admits it. A nil map and an error mean the round
// must not commit.
func (o *Engine) effectiveTransmitters(transmitters []int32) (map[int32]bool, error) {
	tx := make(map[int32]bool)
	for _, v := range transmitters {
		if v < 0 || int(v) >= o.g.N() {
			return nil, fmt.Errorf("oracle: transmitter %d out of range", v)
		}
		if !o.informed[v] {
			switch o.policy {
			case radio.StrictInformed:
				return nil, fmt.Errorf("%w: node %d in round %d", radio.ErrUninformedTransmitter, v, o.round+1)
			case radio.FilterUninformed:
				continue
			case radio.MagicTransmitters:
				// allowed through
			}
		}
		tx[v] = true
	}
	return tx, nil
}

// Round executes one synchronous step per the model definition: exactly
// the (policy-admitted) nodes of transmitters transmit, every other node
// listens, and a listener receives iff exactly one of its neighbours
// transmits. It returns the sorted list of newly informed nodes. A
// validation error leaves the oracle's state untouched, like the engine.
func (o *Engine) Round(transmitters []int32) ([]int32, error) {
	tx, err := o.effectiveTransmitters(transmitters)
	if err != nil {
		return nil, err
	}
	o.round++

	n := o.g.N()
	var newly []int32
	successes, collisions, silent := 0, 0, 0
	for w := int32(0); int(w) < n; w++ {
		if tx[w] {
			continue // a transmitting node does not listen
		}
		// Count w's transmitting neighbours the slow, literal way: one
		// adjacency probe per transmitter, no shared counters.
		count := 0
		for v := range tx {
			if o.g.HasEdge(v, w) {
				count++
			}
		}
		switch {
		case count == 0:
			silent++
		case count == 1:
			successes++
			if !o.informed[w] {
				o.informed[w] = true
				o.informedAt[w] = int32(o.round)
				newly = append(newly, w)
			}
		default:
			collisions++
		}
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i] < newly[j] })

	rec := trace.RoundRecord{
		Round:         o.round,
		Transmitters:  len(tx),
		Successes:     successes,
		Collisions:    collisions,
		Silent:        silent,
		NewlyInformed: len(newly),
		Informed:      o.InformedCount(),
	}
	o.Records = append(o.Records, rec)
	o.Rounds++
	o.Transmissions += len(tx)
	o.Successes += successes
	o.Collisions += collisions
	o.NewlyInformed += len(newly)
	o.Silent += silent
	o.Counters.Informed = rec.Informed
	return newly, nil
}

// RoundFeedback executes one step like Round and additionally returns
// every node's CD-model observation (see radio.Feedback), computed
// naively from the effective transmitter set.
func (o *Engine) RoundFeedback(transmitters []int32) ([]int32, []radio.Feedback, error) {
	tx, err := o.effectiveTransmitters(transmitters)
	if err != nil {
		return nil, nil, err
	}
	n := o.g.N()
	fb := make([]radio.Feedback, n)
	for w := int32(0); int(w) < n; w++ {
		if tx[w] {
			fb[w] = radio.FeedbackNone
			continue
		}
		count := 0
		for v := range tx {
			if o.g.HasEdge(v, w) {
				count++
			}
		}
		switch {
		case count == 0:
			fb[w] = radio.FeedbackSilence
		case count == 1:
			fb[w] = radio.FeedbackMessage
		default:
			fb[w] = radio.FeedbackCollision
		}
	}
	newly, err := o.Round(transmitters)
	return newly, fb, err
}

// Result summarises an oracle run in the engine's radio.Result shape, so
// the two can be compared field by field.
func (o *Engine) Result() radio.Result {
	return radio.Result{
		Completed:  o.Done(),
		Rounds:     o.round,
		Informed:   o.InformedCount(),
		N:          o.g.N(),
		InformedAt: o.InformedTimes(),
		Stats:      o.Counters,
	}
}

// RunProtocol drives the oracle under the protocol until completion or
// the round budget, consuming randomness in exactly the engine's
// per-node order: ascending vertex index over informed nodes only. With
// the same rng stream it therefore matches the engine's per-node path
// bit-for-bit, not just in distribution.
func (o *Engine) RunProtocol(p radio.Protocol, maxRounds int, rng *xrand.Rand) radio.Result {
	for o.round < maxRounds && !o.Done() {
		round := o.round + 1
		var tx []int32
		for v := 0; v < o.g.N(); v++ {
			if !o.informed[v] {
				continue
			}
			if p.Transmit(int32(v), round, o.informedAt[v], rng) {
				tx = append(tx, int32(v))
			}
		}
		if _, err := o.Round(tx); err != nil {
			panic(err) // only informed nodes are offered
		}
	}
	return o.Result()
}

// ExecuteSchedule replays the schedule, stopping early on completion,
// with the engine's error contract: a failing round aborts the run and
// returns the error.
func (o *Engine) ExecuteSchedule(s *radio.Schedule) (radio.Result, error) {
	for _, set := range s.Sets {
		if o.Done() {
			break
		}
		if _, err := o.Round(set); err != nil {
			return radio.Result{}, err
		}
	}
	return o.Result(), nil
}

// Replay feeds the recorded transmitter sets to the oracle in order (no
// early stop: the recording already reflects the engine's stopping
// behaviour) and returns the result. It is how the differential harness
// checks engine paths whose randomness stream the oracle cannot
// reproduce (the sampled-transmitter fast path): record what the engine
// drew, replay the draws against the naive semantics.
func (o *Engine) Replay(sets [][]int32) (radio.Result, error) {
	for _, set := range sets {
		if _, err := o.Round(set); err != nil {
			return radio.Result{}, err
		}
	}
	return o.Result(), nil
}

package radio

// The collision-detection (CD) model variant. The paper's model gives
// listeners NO collision detection: a collision is indistinguishable from
// silence. The CD variant — equally standard in the radio-network
// literature — lets a listening node distinguish silence, a clean message
// and a collision. RunCDProtocolContext simulates that model; protocols
// receive their previous round's observation and can adapt (see
// protocols.Backoff for a knowledge-free protocol built on it, and
// experiment E19 for the comparison).

import (
	"context"

	"repro/internal/xrand"
)

// Feedback is what a node observed in a round.
type Feedback uint8

const (
	// FeedbackNone: the node transmitted, so it heard nothing (radios are
	// half-duplex in this model).
	FeedbackNone Feedback = iota
	// FeedbackSilence: listening, no transmitting neighbour.
	FeedbackSilence
	// FeedbackMessage: listening, exactly one transmitting neighbour.
	FeedbackMessage
	// FeedbackCollision: listening, two or more transmitting neighbours.
	// Only distinguishable from silence in the CD model.
	FeedbackCollision
)

// String names the feedback value.
func (f Feedback) String() string {
	switch f {
	case FeedbackNone:
		return "none"
	case FeedbackSilence:
		return "silence"
	case FeedbackMessage:
		return "message"
	case FeedbackCollision:
		return "collision"
	default:
		return "invalid"
	}
}

// FeedbackProtocol is a distributed protocol in the CD model: the decision
// may additionally use the node's observation from the previous round.
type FeedbackProtocol interface {
	// TransmitCD reports whether informed node v transmits in the given
	// round. prev is v's observation from the previous round
	// (FeedbackSilence before round 1).
	TransmitCD(v int32, round int, informedAt int32, prev Feedback, rng *xrand.Rand) bool
}

// RoundWithFeedback executes one round like Round and additionally fills
// fb (length n) with every node's observation, read from the same
// reception planes that decide the round. It returns the newly informed
// nodes. A rejected round leaves fb unchanged.
func (e *Engine) RoundWithFeedback(transmitters []int32, fb []Feedback) ([]int32, error) {
	if len(fb) != e.g.N() {
		panic("radio: feedback slice has wrong length")
	}
	return e.step(transmitters, fb)
}

// RunCDProtocolContext simulates a CD-model protocol on the engine's
// CURRENT state — no reset — for at most maxRounds rounds, stopping early
// on completion. Like the other runners it brackets the run with
// BeginRun/EndRun for an attached observer and checks ctx between
// rounds without consuming randomness; on cancellation the partial
// Result is returned alongside an error wrapping ErrCanceled and the
// context's cause.
func RunCDProtocolContext(ctx context.Context, e *Engine, p FeedbackProtocol, maxRounds int, rng *xrand.Rand) (Result, error) {
	e.observeBegin(maxRounds)
	defer e.observeEnd()
	n := e.g.N()
	fb := make([]Feedback, n)
	for i := range fb {
		fb[i] = FeedbackSilence
	}
	next := make([]Feedback, n)
	var tx []int32
	for e.round < maxRounds && !e.Done() {
		if ctx.Err() != nil {
			return resultOf(e), Canceled(ctx)
		}
		tx = tx[:0]
		round := e.round + 1
		for v, inf := range e.informed {
			if !inf {
				continue
			}
			if p.TransmitCD(int32(v), round, e.informedAt[v], fb[v], rng) {
				tx = append(tx, int32(v))
			}
		}
		if _, err := e.RoundWithFeedback(tx, next); err != nil {
			panic(err) // only informed nodes are offered
		}
		fb, next = next, fb
	}
	return resultOf(e), nil
}

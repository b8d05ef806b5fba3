package core

import (
	"math"

	"repro/internal/radio"
	"repro/internal/xrand"
)

// DistributedProtocol is the randomized fully distributed broadcasting
// protocol of §3.2 (Theorem 7). Nodes know only n and the expected average
// degree d = pn (derived from p, which the model gives every node), plus
// the shared round counter.
//
// Protocol:
//
//   - Non-selective rounds 1 … D₁ = ⌊log n / log d⌋ − 1: every informed
//     node transmits.
//   - Round D₁+1 (the "n/d^D-selective" round): informed nodes transmit
//     with probability KickProb, sized so that about n/d of the ≈ d^D₁
//     phase-one informed nodes transmit.
//   - Rounds > D₁+1 (1/d-selective): informed nodes transmit with
//     probability Selectivity (= 1/d).
//
// A modelling note recorded in DESIGN.md: the paper's protocol STATEMENT
// says only "node[s] informed in one of the rounds 1,…,D" transmit in the
// selective rounds, but its PROOF of Theorem 7 samples each selective set
// "uniformly at random" from I(t′), "the set of informed nodes at time
// t′". The literal statement strands finite instances (a vertex whose
// neighbours were all informed after round D₁+1 can never hear the
// message), so this implementation follows the proof: the selective pool
// is all informed nodes. Set RestrictPool to get the literal reading —
// ablated in experiment E12 — optionally with SafetyRound as an escape
// hatch that re-widens the pool after that round.
type DistributedProtocol struct {
	N           int     // number of nodes (known to all nodes)
	Degree      float64 // expected average degree d = pn (known to all nodes)
	D1          int     // number of non-selective rounds
	KickProb    float64 // transmit probability in round D1+1
	Selectivity float64 // transmit probability in selective rounds
	// RestrictPool limits selective-round transmitters to nodes informed
	// in rounds <= PoolCutoff (the paper's literal protocol statement).
	RestrictPool bool
	PoolCutoff   int32
	// SafetyRound, when RestrictPool is set and SafetyRound > 0, re-widens
	// the pool to all informed nodes from that round on.
	SafetyRound int
}

// NewDistributedProtocol returns the protocol in the configuration used by
// the proof of Theorem 7 (selective pool = all informed nodes).
func NewDistributedProtocol(n int, d float64) *DistributedProtocol {
	return newDistributedCommon(n, d)
}

// NewRestrictedPoolProtocol returns the literal protocol statement of
// §3.2: only nodes informed during the first D₁+1 rounds transmit in the
// selective rounds, with a safety valve that re-widens the pool after
// D₁ + 1 + ⌈8 ln n⌉ rounds so finite runs cannot strand forever.
func NewRestrictedPoolProtocol(n int, d float64) *DistributedProtocol {
	p := newDistributedCommon(n, d)
	p.RestrictPool = true
	p.SafetyRound = p.D1 + 1 + int(math.Ceil(8*math.Log(float64(n)+2)))
	return p
}

func newDistributedCommon(n int, d float64) *DistributedProtocol {
	if d < 2 {
		d = 2
	}
	d1 := 0
	if n > 2 {
		d1 = int(math.Floor(math.Log(float64(n))/math.Log(d))) - 1
	}
	if d1 < 0 {
		d1 = 0
	}
	// Expected phase-one informed population is ≈ d^D₁; the kick round
	// should select ≈ n/d transmitters out of it.
	expInformed := math.Pow(d, float64(d1))
	kick := (float64(n) / d) / math.Max(expInformed, 1)
	if kick > 1 {
		kick = 1
	}
	return &DistributedProtocol{
		N:           n,
		Degree:      d,
		D1:          d1,
		KickProb:    kick,
		Selectivity: 1 / d,
		PoolCutoff:  int32(d1 + 1),
	}
}

// Transmit implements radio.Protocol.
func (p *DistributedProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	switch {
	case round <= p.D1:
		return true
	case round == p.D1+1:
		return rng.Bernoulli(p.KickProb)
	default:
		if p.RestrictPool {
			inPool := informedAt <= p.PoolCutoff
			if p.SafetyRound > 0 && round >= p.SafetyRound {
				inPool = true
			}
			if !inPool {
				return false
			}
		}
		return rng.Bernoulli(p.Selectivity)
	}
}

// RoundProb implements radio.UniformProtocol: every round of the protocol
// is uniform — flooding (q = 1), the kick-off round (q = KickProb) and
// the selective rounds (q = Selectivity), with the eligible cohort
// restricted to the phase-one informed pool under RestrictPool. The
// engine therefore simulates the protocol with one binomial draw per
// round instead of one Bernoulli per informed node; the per-round
// transmitter distribution is exactly that of Transmit.
func (p *DistributedProtocol) RoundProb(round int) (q float64, cohort radio.Cohort, ok bool) {
	switch {
	case round <= p.D1:
		return 1, radio.AllInformed, true
	case round == p.D1+1:
		return p.KickProb, radio.AllInformed, true
	default:
		if p.RestrictPool && !(p.SafetyRound > 0 && round >= p.SafetyRound) {
			return p.Selectivity, radio.InformedBy(p.PoolCutoff), true
		}
		return p.Selectivity, radio.AllInformed, true
	}
}

// MaxRoundsFor returns a generous simulation budget for the distributed
// protocol on n nodes: well beyond the Θ(ln n) completion bound, so an
// incomplete run signals a real protocol failure rather than a tight cap.
func MaxRoundsFor(n int) int {
	if n < 2 {
		return 8
	}
	return 64*int(math.Ceil(math.Log(float64(n)))) + 64
}

// Package gossip implements GOSSIPING (all-to-all broadcast) in the radio
// model — the natural follow-up problem the paper's conclusions point to
// ("open problems" in radio communication in random graphs): every node
// starts with its own rumor, transmissions carry every rumor the sender
// currently knows, and the task completes when every node knows every
// rumor.
//
// Collision semantics are identical to broadcasting, and so is the code
// that applies them: each round runs the engine's reception kernel
// (radio.Reception), so a listening node receives the transmission iff
// exactly one of its neighbours transmits, and a transmitter hears
// nothing. The package keeps only its own delivery rule: the listener
// merges its sender's rumor set into its own.
//
// The package provides the simulation engine plus three protocols:
//
//   - RoundRobin: node v transmits alone in rounds ≡ v (mod n);
//     collision-free, completes in ≤ n·D rounds on any connected graph.
//   - Uniform(q): every node transmits with probability q each round (the
//     gossip analogue of the paper's 1/d-selective rounds).
//   - Phased: flooding for the first few rounds (spread the union fast in
//     sparse neighbourhoods), then Uniform(1/d) — the direct adaptation
//     of the paper's Theorem 7 protocol to gossiping.
//
// Experiment E13 measures these on G(n,p): random-graph gossiping with
// q = 1/d completes in O(n/d + ln n)·polylog-ish time in practice because
// each clean reception merges whole rumor sets; the experiment records
// the measured shape.
package gossip

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Protocol decides whether node v transmits in a round of gossiping.
type Protocol interface {
	Transmit(v int32, round int, rng *xrand.Rand) bool
}

// ProtocolFunc adapts a function to Protocol.
type ProtocolFunc func(v int32, round int, rng *xrand.Rand) bool

// Transmit implements Protocol.
func (f ProtocolFunc) Transmit(v int32, round int, rng *xrand.Rand) bool {
	return f(v, round, rng)
}

// UniformProtocol is an optional capability of Protocol, mirroring
// radio.UniformProtocol: a protocol implements it to declare that in some
// rounds every node transmits independently with the same probability q
// (in gossiping every node holds a rumor, so all n nodes are always
// eligible). For such rounds Run draws k ~ Binomial(n, q) transmitters by
// partial Fisher–Yates in O(k) instead of flipping n coins — the same
// distribution over transmitter sets through a different (much shorter)
// randomness stream, so individual runs at a fixed seed changed when this
// fast path landed while their distributions did not.
type UniformProtocol interface {
	Protocol
	// RoundProb reports whether the round is uniform with probability q;
	// ok = false falls back to per-node Transmit calls for that round.
	RoundProb(round int) (q float64, ok bool)
}

// RoundRobin is the collision-free deterministic baseline.
type RoundRobin struct{ N int }

// Transmit implements Protocol.
func (r RoundRobin) Transmit(v int32, round int, rng *xrand.Rand) bool {
	return int32((round-1)%r.N) == v
}

// Uniform transmits with a fixed probability every round.
type Uniform struct{ Q float64 }

// Transmit implements Protocol.
func (u Uniform) Transmit(v int32, round int, rng *xrand.Rand) bool {
	return rng.Bernoulli(u.Q)
}

// RoundProb implements UniformProtocol: every round is uniform at Q.
func (u Uniform) RoundProb(round int) (float64, bool) { return u.Q, true }

// Phased floods for FloodRounds rounds and then behaves like Uniform(Q) —
// the gossiping analogue of the paper's distributed broadcast protocol.
type Phased struct {
	FloodRounds int
	Q           float64
}

// Transmit implements Protocol.
func (p Phased) Transmit(v int32, round int, rng *xrand.Rand) bool {
	if round <= p.FloodRounds {
		return true
	}
	return rng.Bernoulli(p.Q)
}

// RoundProb implements UniformProtocol: flood rounds are uniform at 1,
// later rounds at Q.
func (p Phased) RoundProb(round int) (float64, bool) {
	if round <= p.FloodRounds {
		return 1, true
	}
	return p.Q, true
}

// NewPhased returns the Phased protocol sized for a graph with n nodes and
// expected degree d, mirroring NewDistributedProtocol's phase lengths.
func NewPhased(n int, d float64) Phased {
	if d < 2 {
		d = 2
	}
	f := 0
	if n > 2 {
		f = int(math.Floor(math.Log(float64(n)) / math.Log(d)))
	}
	if f < 1 {
		f = 1
	}
	return Phased{FloodRounds: f, Q: 1 / d}
}

// Result reports a gossip run.
type Result struct {
	Completed bool
	Rounds    int
	// KnownTotal is the sum over nodes of rumors known at the end (n²
	// when complete).
	KnownTotal int64
	// MinKnown is the smallest per-node rumor count at the end.
	MinKnown int
}

// Run simulates gossiping on g under protocol p for at most maxRounds
// rounds. Every node starts knowing exactly its own rumor. Rumor sets are
// merged on every clean reception.
//
// When p implements UniformProtocol (the stock Uniform and Phased
// protocols do), uniform rounds draw their transmitter set by binomial
// sampling instead of n per-node coin flips; wrap the protocol in a
// ProtocolFunc to force the per-node path (same distribution, the
// pre-fast-path randomness stream).
//
// Memory is one n-bit set per node (n²/8 bytes total): n = 16384 needs
// 32 MiB. Completion requires g to be connected.
func Run(g *graph.Graph, p Protocol, maxRounds int, rng *xrand.Rand) Result {
	return RunObserved(g, p, maxRounds, rng, nil)
}

// RunObserved is Run with a trace observer receiving one record per round
// (nil obs behaves exactly like Run; the observer consumes no randomness).
// In the gossip reading of the record, Successes counts clean receptions,
// NewlyInformed counts nodes that completed their rumor set this round,
// and Informed is the cumulative count of such complete nodes.
func RunObserved(g *graph.Graph, p Protocol, maxRounds int, rng *xrand.Rand, obs trace.Observer) Result {
	res, _ := run(g, p, maxRounds, rng, obs)
	return res
}

// run is RunObserved that also returns every node's final rumor set.
func run(g *graph.Graph, p Protocol, maxRounds int, rng *xrand.Rand, obs trace.Observer) (Result, []*bitset.Set) {
	n := g.N()
	know := make([]*bitset.Set, n)
	counts := make([]int, n)
	for v := range know {
		know[v] = bitset.New(n)
		know[v].Set(v)
		counts[v] = 1
	}
	complete := 0 // nodes knowing all rumors
	if n == 1 {
		complete = 1
	}

	if obs != nil {
		obs.BeginRun(trace.RunInfo{N: n, M: g.M(), Sources: n, MaxRounds: maxRounds})
	}
	txBuf := make([]int32, 0, n)
	transmitting := make([]bool, n)
	rx := radio.NewReception(g)
	var heard []int32
	// Sampled-transmitter fast path: for protocols declaring uniform
	// rounds, elig holds all n nodes (every node owns a rumor and may
	// transmit) and each uniform round takes a Binomial(n, q) prefix of a
	// partial Fisher–Yates over it — O(k) instead of n Bernoulli draws.
	up, _ := p.(UniformProtocol)
	var elig []int32
	if up != nil {
		elig = make([]int32, n)
		for i := range elig {
			elig[i] = int32(i)
		}
	}
	round := 0
	var totals trace.Counters
	for round < maxRounds && complete < n {
		round++
		var tx []int32
		sampled := false
		if up != nil {
			if q, ok := up.RoundProb(round); ok {
				sampled = true
				switch {
				case q >= 1:
					tx = elig
				case q <= 0:
					tx = elig[:0]
				default:
					k := rng.Binomial(n, q)
					rng.PartialShuffle(elig, k)
					tx = elig[:k]
				}
			}
		}
		if !sampled {
			tx = txBuf[:0]
			for v := 0; v < n; v++ {
				if p.Transmit(int32(v), round, rng) {
					tx = append(tx, int32(v))
				}
			}
			txBuf = tx
		}
		for _, v := range tx {
			transmitting[v] = true
		}
		rx.Scatter(tx)
		var collisions int
		heard, collisions = rx.Collect(tx, heard[:0])
		newlyComplete := 0
		for _, w := range heard {
			if counts[w] < n {
				know[w].Union(know[rx.Sender(w, transmitting)])
				c := know[w].Count()
				if c == n {
					complete++
					newlyComplete++
				}
				counts[w] = c
			}
		}
		for _, v := range tx {
			transmitting[v] = false
		}
		rec := trace.RoundRecord{
			Round:         round,
			Transmitters:  len(tx),
			Successes:     len(heard),
			Collisions:    collisions,
			Silent:        n - len(tx) - len(heard) - collisions,
			NewlyInformed: newlyComplete,
			Informed:      complete,
		}
		totals.Apply(rec)
		if obs != nil {
			obs.Round(rec)
		}
	}
	if obs != nil {
		obs.EndRun(trace.Summary{
			Completed:     complete == n,
			Rounds:        round,
			Informed:      complete,
			N:             n,
			Transmissions: totals.Transmissions,
			Successes:     totals.Successes,
			Collisions:    totals.Collisions,
			NewlyInformed: totals.NewlyInformed,
		})
	}

	res := Result{Completed: complete == n, Rounds: round, MinKnown: n}
	for _, c := range counts {
		res.KnownTotal += int64(c)
		if c < res.MinKnown {
			res.MinKnown = c
		}
	}
	if n == 0 {
		res.MinKnown = 0
		res.Completed = true
	}
	return res, know
}

// Time runs the protocol and returns the completion round, or maxRounds+1
// if gossiping did not finish.
func Time(g *graph.Graph, p Protocol, maxRounds int, rng *xrand.Rand) int {
	res := Run(g, p, maxRounds, rng)
	if !res.Completed {
		return maxRounds + 1
	}
	return res.Rounds
}

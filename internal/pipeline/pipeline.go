// Package pipeline implements k-BROADCAST (multi-message broadcast) in
// the radio model: the source holds k distinct messages and every node
// must receive all of them. Unlike gossiping (package gossip), a
// transmission carries exactly ONE message — the sender must choose which
// — so the question becomes pipelining throughput: after the first
// message pays the usual Θ(ln n) latency, how much extra time does each
// additional message cost?
//
// Reception is the engine's (radio.Reception): a listener receives iff
// exactly one neighbour transmits, and a transmitter hears nothing. The
// package keeps only its own delivery rule: the listener learns the one
// message its sender chose this round.
//
// This is the natural throughput follow-up to the paper's single-message
// results (its conclusions point at communication primitives beyond
// one-shot broadcast); experiment E20 measures T(k) and fits the
// latency + k·throughput⁻¹ line.
package pipeline

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Selection picks which known message a transmitting node sends.
type Selection int

const (
	// RoundRobinMsg cycles deterministically through the node's known
	// messages (send the lowest-index message it has sent least often —
	// implemented as (round + v) mod known for statelessness).
	RoundRobinMsg Selection = iota
	// RandomMsg picks a uniformly random known message.
	RandomMsg
	// RarestFirst is a genie-aided policy: the sender picks the message
	// known by the fewest nodes globally (an upper bound on what local
	// policies can achieve; real systems approximate it with gossip
	// about availability).
	RarestFirst
)

// String names the policy.
func (s Selection) String() string {
	switch s {
	case RoundRobinMsg:
		return "round-robin"
	case RandomMsg:
		return "random"
	case RarestFirst:
		return "rarest-first"
	default:
		return "unknown"
	}
}

// Result reports a k-broadcast run.
type Result struct {
	Completed bool
	Rounds    int
	// Delivered counts (node, message) pairs delivered.
	Delivered int64
	// FirstComplete[m] is the round by which message m reached every
	// node (-1 if it did not).
	FirstComplete []int
}

// Run simulates k-broadcast from src on g: src initially knows messages
// 0..k-1, everyone else none. A node is "informed" (and allowed to
// transmit) once it knows at least one message. Each transmission carries
// one message chosen by sel. Completion: every node knows every message.
// p decides only whether an informed node transmits: every informed node
// is asked every round, also in rounds p declares uniform
// (radio.UniformProtocol), and sel then picks the message.
func Run(g *graph.Graph, src int32, k int, p radio.Protocol, sel Selection, maxRounds int, rng *xrand.Rand) Result {
	n := g.N()
	know := make([]*bitset.Set, n)
	for v := range know {
		know[v] = bitset.New(k)
	}
	know[src].Fill()
	counts := make([]int, n) // messages known per node
	counts[src] = k
	informedAt := make([]int32, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informedAt[src] = 0
	// completeCount[m] = nodes knowing message m.
	completeCount := make([]int, k)
	for m := range completeCount {
		completeCount[m] = 1
	}
	res := Result{FirstComplete: make([]int, k)}
	for m := range res.FirstComplete {
		res.FirstComplete[m] = -1
		if n == 1 {
			res.FirstComplete[m] = 0
		}
	}
	done := 0 // messages fully delivered
	if n == 1 {
		done = k
	}

	// Per-round scratch.
	rx := radio.NewReception(g)
	var tx, heard []int32
	carrying := make([]int32, n)    // message carried by transmitter v this round
	transmitting := make([]bool, n) // tx membership, cleared after each round

	round := 0
	for round < maxRounds && done < k {
		round++
		tx = tx[:0]
		for v := 0; v < n; v++ {
			if counts[v] == 0 {
				continue
			}
			if p.Transmit(int32(v), round, informedAt[v], rng) {
				tx = append(tx, int32(v))
			}
		}
		// Choose each transmitter's message.
		for _, v := range tx {
			carrying[v] = chooseMessage(know[v], counts[v], int(v), round, sel, completeCount, rng)
		}
		for _, v := range tx {
			transmitting[v] = true
		}
		rx.Scatter(tx)
		heard, _ = rx.Collect(tx, heard[:0])
		for _, w := range heard {
			m := carrying[rx.Sender(w, transmitting)]
			if !know[w].Test(int(m)) {
				know[w].Set(int(m))
				counts[w]++
				res.Delivered++
				if counts[w] == 1 {
					informedAt[w] = int32(round)
				}
				completeCount[m]++
				if completeCount[m] == n {
					res.FirstComplete[m] = round
					done++
				}
			}
		}
		for _, v := range tx {
			transmitting[v] = false
		}
	}
	res.Completed = done == k
	res.Rounds = round
	return res
}

// chooseMessage implements the selection policies over the sender's known
// set.
func chooseMessage(known *bitset.Set, count, v, round int, sel Selection, globalKnown []int, rng *xrand.Rand) int32 {
	switch sel {
	case RandomMsg:
		idx := rng.Intn(count)
		return nthKnown(known, idx)
	case RarestFirst:
		best, bestCount := -1, 1<<30
		known.ForEach(func(m int) bool {
			if globalKnown[m] < bestCount {
				best, bestCount = m, globalKnown[m]
			}
			return true
		})
		return int32(best)
	default: // RoundRobinMsg
		idx := (round + v) % count
		return nthKnown(known, idx)
	}
}

// nthKnown returns the index of the (idx+1)-th set bit.
func nthKnown(known *bitset.Set, idx int) int32 {
	var out int32 = -1
	i := 0
	known.ForEach(func(m int) bool {
		if i == idx {
			out = int32(m)
			return false
		}
		i++
		return true
	})
	return out
}

// Time runs the pipeline and returns the completion round or the sentinel
// maxRounds+1.
func Time(g *graph.Graph, src int32, k int, p radio.Protocol, sel Selection, maxRounds int, rng *xrand.Rand) int {
	res := Run(g, src, k, p, sel, maxRounds, rng)
	if !res.Completed {
		return maxRounds + 1
	}
	return res.Rounds
}

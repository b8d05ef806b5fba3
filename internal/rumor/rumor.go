// Package rumor implements the single-port information-dissemination
// models that §1.2 of the paper contrasts with radio broadcasting:
//
//   - Push rumor spreading (Feige, Peleg, Raghavan, Upfal): in every round
//     each informed node sends the rumor to one uniformly random
//     neighbour. No collisions — point-to-point links. O(log n) rounds on
//     G(n,p) above the connectivity threshold.
//   - Pull: each uninformed node asks one random neighbour and learns the
//     rumor if that neighbour is informed.
//   - Push–pull: both at once.
//   - Agent-based broadcasting: a fixed number of agents perform random
//     walks; an agent carrying the rumor deposits it on every node it
//     visits, and an empty agent picks the rumor up when visiting an
//     informed node. O(max{log n, D}) rounds in random graphs per the
//     extension of Feige et al. cited in §1.2.
//
// These simulators share the synchronous round structure with the radio
// engine, so completion times are directly comparable (experiment E10).
package rumor

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Mode selects the exchange pattern of Spread.
type Mode int

const (
	// Push: informed nodes send to a random neighbour.
	Push Mode = iota
	// Pull: uninformed nodes ask a random neighbour.
	Pull
	// PushPull: both exchanges every round.
	PushPull
)

// String returns the canonical name of the mode.
func (m Mode) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return "unknown"
	}
}

// Result reports a completed (or truncated) rumor-spreading run.
type Result struct {
	Completed  bool
	Rounds     int
	Informed   int
	InformedAt []int32 // round each node learnt the rumor; -1 if never
}

// Spread runs the selected single-port protocol from src for at most
// maxRounds rounds and returns the result. Isolated vertices can never be
// informed; they simply bound Completed.
func Spread(g *graph.Graph, src int32, mode Mode, maxRounds int, rng *xrand.Rand) Result {
	n := g.N()
	informed := make([]bool, n)
	informedAt := make([]int32, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informed[src] = true
	informedAt[src] = 0
	count := 1

	newly := make([]int32, 0, 64)
	round := 0
	for round < maxRounds && count < n {
		round++
		newly = newly[:0]
		if mode == Push || mode == PushPull {
			for v := 0; v < n; v++ {
				if !informed[v] {
					continue
				}
				nb := g.Neighbors(int32(v))
				if len(nb) == 0 {
					continue
				}
				w := nb[rng.Intn(len(nb))]
				if !informed[w] && informedAt[w] != int32(round) {
					// Mark via informedAt to keep same-round pushes from
					// double counting; commit after the loop so pulls in
					// the same round cannot chain off pushes.
					informedAt[w] = int32(round)
					newly = append(newly, w)
				}
			}
		}
		if mode == Pull || mode == PushPull {
			for v := 0; v < n; v++ {
				if informed[v] || informedAt[v] == int32(round) {
					continue
				}
				nb := g.Neighbors(int32(v))
				if len(nb) == 0 {
					continue
				}
				w := nb[rng.Intn(len(nb))]
				if informed[w] {
					informedAt[v] = int32(round)
					newly = append(newly, int32(v))
				}
			}
		}
		for _, w := range newly {
			if !informed[w] {
				informed[w] = true
				count++
			}
		}
	}
	return Result{
		Completed:  count == n,
		Rounds:     round,
		Informed:   count,
		InformedAt: informedAt,
	}
}

// SpreadTime runs Spread and returns the completion round, or maxRounds+1
// if the rumor did not reach everyone (sentinel, as in radio.BroadcastTimeOnContext).
func SpreadTime(g *graph.Graph, src int32, mode Mode, maxRounds int, rng *xrand.Rand) int {
	res := Spread(g, src, mode, maxRounds, rng)
	if !res.Completed {
		return maxRounds + 1
	}
	return res.Rounds
}

// Agents runs the agent-based broadcasting model: k agents start at
// uniformly random vertices and perform independent synchronous random
// walks. An agent standing on an informed vertex becomes a carrier; a
// carrier informs every vertex it stands on. Returns the result after all
// nodes are informed or maxRounds elapse.
func Agents(g *graph.Graph, src int32, k, maxRounds int, rng *xrand.Rand) Result {
	n := g.N()
	informed := make([]bool, n)
	informedAt := make([]int32, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	informed[src] = true
	informedAt[src] = 0
	count := 1

	pos := make([]int32, k)
	carrier := make([]bool, k)
	for i := range pos {
		pos[i] = rng.Int31n(int32(n))
		if informed[pos[i]] {
			carrier[i] = true
		}
	}
	round := 0
	for round < maxRounds && count < n {
		round++
		for i := range pos {
			nb := g.Neighbors(pos[i])
			if len(nb) > 0 {
				pos[i] = nb[rng.Intn(len(nb))]
			}
			if carrier[i] {
				if !informed[pos[i]] {
					informed[pos[i]] = true
					informedAt[pos[i]] = int32(round)
					count++
				}
			} else if informed[pos[i]] {
				carrier[i] = true
			}
		}
	}
	return Result{
		Completed:  count == n,
		Rounds:     round,
		Informed:   count,
		InformedAt: informedAt,
	}
}

package lower

// Randomized local search over schedules: given any valid broadcast
// schedule, TightenSchedule tries to shorten it by deleting rounds,
// merging adjacent rounds and re-randomising transmit sets, accepting any
// mutation that keeps the broadcast complete. Used as a second, search-
// based adversary for Theorem 6: if even local search cannot push a
// schedule below c·(ln n/ln d + ln d), the lower-bound shape has another
// independent witness.

import (
	"context"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// TightenSchedule performs up to iterations mutation attempts on a COPY of
// the input schedule and returns the best complete schedule found together
// with its executed round count. The input schedule must itself complete
// the broadcast (validated first; if it does not, TightenSchedule returns
// it unchanged with completed=false).
func TightenSchedule(g *graph.Graph, src int32, s *radio.Schedule, iterations int, rng *xrand.Rand) (*radio.Schedule, int, bool) {
	best := cloneSchedule(s)
	bestRounds, ok := executedRounds(g, src, best)
	if !ok {
		return best, bestRounds, false
	}
	// Trim rounds the execution never reached (completion before the end).
	best.Sets = best.Sets[:bestRounds]

	for iter := 0; iter < iterations && len(best.Sets) > 1; iter++ {
		cand := cloneSchedule(best)
		switch rng.Intn(3) {
		case 0: // delete a random round
			i := rng.Intn(len(cand.Sets))
			cand.Sets = append(cand.Sets[:i], cand.Sets[i+1:]...)
		case 1: // merge a random adjacent pair
			if len(cand.Sets) < 2 {
				continue
			}
			i := rng.Intn(len(cand.Sets) - 1)
			merged := append(append([]int32{}, cand.Sets[i]...), cand.Sets[i+1]...)
			cand.Sets[i] = merged
			cand.Sets = append(cand.Sets[:i+1], cand.Sets[i+2:]...)
		case 2: // thin a random round to a random subset
			i := rng.Intn(len(cand.Sets))
			if len(cand.Sets[i]) < 2 {
				continue
			}
			cand.Sets[i] = rng.SubsetEach(nil, cand.Sets[i], 0.7)
			if len(cand.Sets[i]) == 0 {
				cand.Sets = append(cand.Sets[:i], cand.Sets[i+1:]...)
			}
		}
		if rounds, ok := executedRounds(g, src, cand); ok && rounds <= bestRounds {
			cand.Sets = cand.Sets[:rounds]
			best = cand
			bestRounds = rounds
		}
	}
	return best, bestRounds, true
}

func cloneSchedule(s *radio.Schedule) *radio.Schedule {
	c := &radio.Schedule{Sets: make([][]int32, len(s.Sets))}
	for i, set := range s.Sets {
		c.Sets[i] = append([]int32{}, set...)
	}
	return c
}

// executedRounds replays the schedule under FilterUninformed (mutations
// may move a transmitter before it is informed; the filter keeps the
// semantics physical) and reports the completion round.
func executedRounds(g *graph.Graph, src int32, s *radio.Schedule) (int, bool) {
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{src}, Schedule: s,
		Engine: radio.NewEngine(g, src, radio.FilterUninformed)}, nil)
	if err != nil {
		return 0, false
	}
	return res.Rounds, res.Completed
}

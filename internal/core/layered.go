package core

// LayeredCoverSchedule: the classical deterministic centralized approach
// for KNOWN arbitrary topologies (the Chlamtac–Weinstein lineage that
// §1.2's centralized results refine): advance the broadcast one BFS layer
// at a time; within a layer, pick a greedy set cover of the next layer
// from the informed layer, then let the cover transmit one element per
// round (trivially collision-free). Rounds = Σ per-layer cover sizes —
// O(D · Δ) worst case, far above the paper's bound on random graphs,
// which is exactly why it serves as the deterministic centralized
// baseline in experiment E15.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/radio"
)

// BuildLayeredCoverSchedule returns the layer-by-layer greedy-set-cover
// schedule for broadcasting from src on the connected graph g.
func BuildLayeredCoverSchedule(g *graph.Graph, src int32) (*radio.Schedule, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: %w: empty graph", radio.ErrScheduleMismatch)
	}
	dist := graph.Distances(g, src)
	for v, dv := range dist {
		if dv == graph.Unreachable {
			return nil, fmt.Errorf("core: %w: vertex %d unreachable from %d", radio.ErrScheduleMismatch, v, src)
		}
	}
	layers := graph.LayersFromDist(dist)
	sched := &radio.Schedule{}
	for i := 0; i+1 < len(layers); i++ {
		cover := greedySetCover(g, layers[i], layers[i+1])
		for _, v := range cover {
			sched.Sets = append(sched.Sets, []int32{v})
		}
	}
	return sched, nil
}

// greedySetCover covers target from candidates: repeatedly choose the
// candidate adjacent to the most uncovered targets. Returns the chosen
// candidates in selection order.
func greedySetCover(g *graph.Graph, candidates, target []int32) []int32 {
	uncovered := make(map[int32]bool, len(target))
	for _, w := range target {
		uncovered[w] = true
	}
	// gain-sorted greedy with lazy re-evaluation.
	type cand struct {
		v    int32
		gain int
	}
	heap := make([]cand, 0, len(candidates))
	gainOf := func(v int32) int {
		c := 0
		for _, w := range g.Neighbors(v) {
			if uncovered[w] {
				c++
			}
		}
		return c
	}
	for _, v := range candidates {
		if gn := gainOf(v); gn > 0 {
			heap = append(heap, cand{v, gn})
		}
	}
	sort.Slice(heap, func(i, j int) bool { return heap[i].gain > heap[j].gain })
	var chosen []int32
	for len(uncovered) > 0 && len(heap) > 0 {
		// Lazy greedy: re-evaluate the head; if it is still at least as
		// good as the next entry's stale bound, take it.
		top := heap[0]
		fresh := gainOf(top.v)
		if fresh == 0 {
			heap = heap[1:]
			continue
		}
		if len(heap) > 1 && fresh < heap[1].gain {
			heap[0].gain = fresh
			sort.Slice(heap, func(i, j int) bool { return heap[i].gain > heap[j].gain })
			continue
		}
		chosen = append(chosen, top.v)
		for _, w := range g.Neighbors(top.v) {
			delete(uncovered, w)
		}
		heap = heap[1:]
	}
	return chosen
}

// CompressSchedule post-optimises a valid schedule: it removes
// transmitters whose removal does not reduce the set of newly informed
// nodes in their round (collision victims and redundant repeats), then
// drops rounds that inform nobody, re-simulating as it goes so the result
// is valid by construction. Compression never increases the round count.
//
// This is an engineering pass, not part of the paper's algorithm; the E12
// notes record how much slack it finds in the Theorem 5 schedules.
func CompressSchedule(g *graph.Graph, src int32, s *radio.Schedule) (*radio.Schedule, error) {
	e := radio.NewEngine(g, src, radio.StrictInformed)
	out := &radio.Schedule{}
	for _, set := range s.Sets {
		if e.Done() {
			break
		}
		kept := compressRound(g, e, set)
		if len(kept) == 0 {
			continue // round informed nobody even before compression
		}
		owned := make([]int32, len(kept))
		copy(owned, kept)
		out.Sets = append(out.Sets, owned)
		if _, err := e.Round(owned); err != nil {
			return nil, err
		}
	}
	if !e.Done() {
		// The input schedule did not complete either; compression
		// preserves whatever coverage it had.
		res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{src}, Schedule: s}, nil)
		if err != nil {
			return nil, err
		}
		if res.Completed {
			return nil, fmt.Errorf("core: %w: compression lost coverage (internal error)", radio.ErrScheduleMismatch)
		}
	}
	return out, nil
}

// compressRound returns a subset of set whose newly-informed node SET is
// a superset of the full set's, on the current engine state: transmitters
// are dropped greedily only when removal loses no receiver (it can gain
// un-collided ones). The superset requirement — rather than a count
// comparison — is what keeps every later round of the original schedule
// valid: the compressed run's informed set dominates the original's at
// every prefix, and "exactly one transmitting neighbour" does not depend
// on informedness, so every originally-informed node stays informed.
func compressRound(g *graph.Graph, e *radio.Engine, set []int32) []int32 {
	// newlySet computes the receivers of a candidate transmit set without
	// touching e.
	newlySet := func(tx []int32) map[int32]bool {
		inTx := make(map[int32]bool, len(tx))
		for _, v := range tx {
			inTx[v] = true
		}
		hits := make(map[int32]int)
		for v := range inTx {
			for _, w := range g.Neighbors(v) {
				hits[w]++
			}
		}
		out := make(map[int32]bool)
		for w, h := range hits {
			if h == 1 && !inTx[w] && !e.Informed(w) {
				out[w] = true
			}
		}
		return out
	}
	superset := func(big, small map[int32]bool) bool {
		for w := range small {
			if !big[w] {
				return false
			}
		}
		return true
	}
	current := make([]int32, 0, len(set))
	seen := make(map[int32]bool, len(set))
	for _, v := range set {
		if !seen[v] && e.Informed(v) {
			seen[v] = true
			current = append(current, v)
		}
	}
	base := newlySet(current)
	if len(base) == 0 {
		return nil
	}
	// Greedy elimination, one pass.
	for i := 0; i < len(current); {
		trial := make([]int32, 0, len(current)-1)
		trial = append(trial, current[:i]...)
		trial = append(trial, current[i+1:]...)
		if got := newlySet(trial); superset(got, base) {
			current = trial
			base = got
		} else {
			i++
		}
	}
	return current
}

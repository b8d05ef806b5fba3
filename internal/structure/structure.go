// Package structure implements the combinatorial objects and measurements
// of Section 2 of the paper: independent matchings, (minimal and
// independent) coverings between vertex sets (Definition 1, Proposition 2,
// Lemma 4), and BFS-layer statistics quantifying the "almost tree"
// structure of random graphs (Lemma 3).
//
// These are both the building blocks of the centralized broadcasting
// schedule (Theorem 5 finishes with independent covers) and the subject of
// the structural experiments E7/E8.
package structure

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Cover is the result of a covering construction from a candidate set X
// onto a target set Y.
type Cover struct {
	// Transmitters holds the chosen subset of X.
	Transmitters []int32
	// Covered holds the nodes of Y adjacent to exactly one transmitter
	// (received cleanly in radio terms).
	Covered []int32
	// Collided holds the nodes of Y adjacent to two or more transmitters.
	Collided []int32
	// Missed holds the nodes of Y adjacent to no transmitter.
	Missed []int32
}

// CoveredFraction returns |Covered| / |Y|, or 1 for empty Y.
func (c *Cover) CoveredFraction() float64 {
	total := len(c.Covered) + len(c.Collided) + len(c.Missed)
	if total == 0 {
		return 1
	}
	return float64(len(c.Covered)) / float64(total)
}

// RandomizedCover implements the probabilistic construction in the proof of
// Lemma 4: each x ∈ X joins the transmitter set S independently with
// probability q, and a node y ∈ Y is covered iff it has exactly one
// neighbour in S. With q = 1/d the lemma guarantees Ω(|Y|) covered nodes
// w.h.p. when |X| = Θ(n) and |X|/|Y| = Ω(1).
func RandomizedCover(g *graph.Graph, x, y []int32, q float64, rng *xrand.Rand) *Cover {
	s := rng.SubsetEach(nil, x, q)
	return EvaluateCover(g, s, y)
}

// EvaluateCover classifies each node of y by its number of neighbours in
// the transmitter set s. Membership in s is a binary search over a sorted
// copy of s, so the scratch is O(|s|) whatever the size of g.
func EvaluateCover(g *graph.Graph, s, y []int32) *Cover {
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	c := &Cover{Transmitters: s}
	for _, w := range y {
		count := 0
		for _, nb := range g.Neighbors(w) {
			if _, in := slices.BinarySearch(sorted, nb); in {
				count++
				if count >= 2 {
					break
				}
			}
		}
		switch count {
		case 0:
			c.Missed = append(c.Missed, w)
		case 1:
			c.Covered = append(c.Covered, w)
		default:
			c.Collided = append(c.Collided, w)
		}
	}
	return c
}

// GreedyIndependentCover builds a transmitter set X' ⊆ X such that every
// covered node of Y has exactly one neighbour in X', greedily: candidates
// from X are considered in order of decreasing number of yet-uncovered
// exclusive neighbours in Y, and a candidate is accepted only if adding it
// does not give any already-covered node a second neighbour. Ties go to
// the candidate that comes first in x. The result is an independent
// covering of the covered subset of Y (Definition 1).
//
// This deterministic construction is used by the tail of the centralized
// schedule, where only a handful of nodes remain uninformed and the
// randomized construction would waste rounds.
//
// The greedy works on the bipartite X–Y subgraph only: one pass over the
// neighbours of Y, with a binary search over the sorted candidates, lists
// each candidate's Y-neighbours, and each round rescans those short lists.
// The scratch is O(|x| + |y| + e(X, Y)) whatever the size of g.
func GreedyIndependentCover(g *graph.Graph, x, y []int32) *Cover {
	targets := slices.Clone(y)
	slices.Sort(targets)
	targets = slices.Compact(targets)
	// byVertex holds the positions of x sorted by vertex, ties by position,
	// so a binary search finds a vertex's first position in x: the copy the
	// first-in-x tie-break picks. Later copies get no arcs and never win.
	byVertex := make([]int32, len(x))
	for i := range byVertex {
		byVertex[i] = int32(i)
	}
	slices.SortStableFunc(byVertex, func(a, b int32) int { return cmp.Compare(x[a], x[b]) })
	// arcs are the X–Y edges as (position in x, index in targets), grouped
	// by position in x order: each group is one candidate's Y-neighbours.
	type arc struct{ pos, t int32 }
	var arcs []arc
	for t, w := range targets {
		for _, nb := range g.Neighbors(w) {
			if i, ok := slices.BinarySearchFunc(byVertex, nb, func(p, v int32) int { return cmp.Compare(x[p], v) }); ok {
				arcs = append(arcs, arc{byVertex[i], int32(t)})
			}
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Compare(a.pos, b.pos) })

	covered := make([]bool, len(targets))
	accepted := make([]int32, 0, len(targets))
	for remaining := len(targets); remaining > 0; {
		// The candidate with the most Y-neighbours, none of them covered
		// yet (which also rules out every candidate already accepted);
		// ties go to the first in x.
		best, bestEnd := 0, 0
		for k := 0; k < len(arcs); {
			end := k + 1
			for end < len(arcs) && arcs[end].pos == arcs[k].pos {
				end++
			}
			if end-k > bestEnd-best {
				free := true
				for _, a := range arcs[k:end] {
					if covered[a.t] {
						free = false
						break
					}
				}
				if free {
					best, bestEnd = k, end
				}
			}
			k = end
		}
		if bestEnd == 0 {
			break // no candidate can extend the cover independently
		}
		accepted = append(accepted, x[arcs[best].pos])
		for _, a := range arcs[best:bestEnd] {
			covered[a.t] = true
		}
		remaining -= bestEnd - best
	}
	return EvaluateCover(g, accepted, y)
}

// Matching is a set of vertex-disjoint edges between X and Y.
type Matching struct {
	// Pairs[i] = {x, y} with x ∈ X, y ∈ Y.
	Pairs [][2]int32
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int { return len(m.Pairs) }

// IsIndependent verifies Definition 1: for any two pairs (u,v), (u',v') of
// the matching, (u,v') and (u',v) are NOT edges of g.
func (m *Matching) IsIndependent(g *graph.Graph) bool {
	for i, p := range m.Pairs {
		for j, q := range m.Pairs {
			if i == j {
				continue
			}
			if g.HasEdge(p[0], q[1]) {
				return false
			}
		}
	}
	return true
}

// GreedyIndependentMatching builds an independent matching between X and Y
// greedily: scan y ∈ Y; match y to a neighbour x ∈ X such that x has no
// other neighbour among the currently matched or still-matchable Y-nodes
// used so far, and y has no other neighbour among matched X-nodes. The
// construction mirrors the proof of the second statement of Lemma 4: when
// |X|/|Y| = Ω(d²) almost every y finds a private neighbour.
func GreedyIndependentMatching(g *graph.Graph, x, y []int32) *Matching {
	inX := make(map[int32]bool, len(x))
	for _, v := range x {
		inX[v] = true
	}
	inY := make(map[int32]bool, len(y))
	for _, v := range y {
		inY[v] = true
	}
	matchedX := make(map[int32]bool)
	matchedY := make(map[int32]bool)
	m := &Matching{}
	for _, w := range y {
		// Candidate x: neighbour of w, in X, unmatched, with no edge to
		// any other matched y and no edge to any OTHER y at all sharing…
		// Independence requires: for the new pair (x, w), x has no edge to
		// previously matched y's, and w has no edge to previously matched
		// x's. Future pairs check against (x, w) symmetrically.
		if matchedY[w] {
			continue
		}
		wOK := true
		for _, nb := range g.Neighbors(w) {
			if matchedX[nb] {
				wOK = false
				break
			}
		}
		if !wOK {
			continue
		}
		for _, cand := range g.Neighbors(w) {
			if !inX[cand] || matchedX[cand] {
				continue
			}
			ok := true
			for _, nb := range g.Neighbors(cand) {
				if nb != w && matchedY[nb] {
					ok = false
					break
				}
			}
			if ok {
				matchedX[cand] = true
				matchedY[w] = true
				m.Pairs = append(m.Pairs, [2]int32{cand, w})
				break
			}
		}
	}
	return m
}

// MinimalCover computes a minimal covering X' ⊆ X of the coverable subset
// of Y (Definition 1): first take all of X restricted to vertices with a
// neighbour in Y, then repeatedly discard any x whose removal leaves every
// y still covered. The result is minimal in the set-inclusion sense: no
// proper subset covers the same y's.
func MinimalCover(g *graph.Graph, x, y []int32) []int32 {
	inY := make(map[int32]bool, len(y))
	for _, w := range y {
		inY[w] = true
	}
	// coverCount[w] = number of chosen x adjacent to w.
	coverCount := make(map[int32]int, len(y))
	var chosen []int32
	for _, v := range x {
		useful := false
		for _, w := range g.Neighbors(v) {
			if inY[w] {
				useful = true
				coverCount[w]++
			}
		}
		if useful {
			chosen = append(chosen, v)
		}
	}
	// Discard redundant members (every neighbour in Y covered twice).
	kept := chosen[:0]
	for _, v := range chosen {
		redundant := true
		for _, w := range g.Neighbors(v) {
			if inY[w] && coverCount[w] == 1 {
				redundant = false
				break
			}
		}
		if redundant {
			for _, w := range g.Neighbors(v) {
				if inY[w] {
					coverCount[w]--
				}
			}
		} else {
			kept = append(kept, v)
		}
	}
	return kept
}

// MatchingFromMinimalCover applies Proposition 2 constructively: given a
// minimal covering X' of Y, each x ∈ X' has a "private" neighbour y ∈ Y
// adjacent to no other member of X'; pairing them yields an independent
// matching of size |X'|.
func MatchingFromMinimalCover(g *graph.Graph, cover, y []int32) *Matching {
	inCover := make(map[int32]bool, len(cover))
	for _, v := range cover {
		inCover[v] = true
	}
	inY := make(map[int32]bool, len(y))
	for _, w := range y {
		inY[w] = true
	}
	// coverDeg[w] = number of cover members adjacent to w ∈ Y.
	coverDeg := make(map[int32]int, len(y))
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if inY[w] {
				coverDeg[w]++
			}
		}
	}
	m := &Matching{}
	usedY := make(map[int32]bool)
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if inY[w] && coverDeg[w] == 1 && !usedY[w] {
				m.Pairs = append(m.Pairs, [2]int32{v, w})
				usedY[w] = true
				break
			}
		}
	}
	return m
}

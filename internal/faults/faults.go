// Package faults injects crash faults into radio networks: each node
// independently crashes with probability q before the broadcast starts
// (the standard static crash model). A crashed node neither transmits nor
// receives — in radio terms it simply vanishes from the topology, so a
// faulty run is an ordinary run on the induced subgraph of survivors.
//
// The paper assumes fault-free nodes; robustness to crashes is the kind
// of practical extension a deployment needs, and experiment E16 measures
// how the Theorem 7 protocol degrades: G(n,p) stays connected and
// logarithmic-diameter under constant-rate crashes (survivors form
// G(n', p) with n' ≈ (1−q)n), so completion time should barely move until
// q approaches 1 − δ ln n / (pn² )… in practice until the survivor degree
// d(1−q) hits the connectivity threshold.
package faults

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Scenario is a crash-fault configuration applied to a base graph.
type Scenario struct {
	// Survivors maps new vertex ids to original ids.
	Survivors []int32
	// Sub is the induced subgraph on the survivors.
	Sub *graph.Graph
	// SrcNew is the source's id in Sub, or -1 if the source crashed.
	SrcNew int32
	// CrashedCount is the number of crashed nodes.
	CrashedCount int
}

// Crash samples a crash pattern: every node except the protected source
// crashes independently with probability q. (Protecting the source keeps
// the broadcast well-defined; a crashed source is a trivial failure.)
//
// Degenerate rates are resolved deterministically and consume NO
// randomness: q <= 0 and NaN crash nobody, q >= 1 crashes everybody but
// the source. A NaN must not fall through to per-node Bernoulli draws —
// `Float64() < NaN` is false, so it would crash nobody while silently
// eating n−1 draws and perturbing every seeded result downstream.
func Crash(g *graph.Graph, src int32, q float64, rng *xrand.Rand) *Scenario {
	n := g.N()
	survivors := make([]int32, 0, n)
	switch {
	case q != q || q <= 0: // NaN or non-positive: nobody crashes
		for v := 0; v < n; v++ {
			survivors = append(survivors, int32(v))
		}
	case q >= 1: // everybody but the protected source crashes
		if src >= 0 && int(src) < n {
			survivors = append(survivors, src)
		}
	default:
		for v := 0; v < n; v++ {
			if int32(v) == src || !rng.Bernoulli(q) {
				survivors = append(survivors, int32(v))
			}
		}
	}
	sub, orig := g.Subgraph(survivors)
	sc := &Scenario{Survivors: orig, Sub: sub, SrcNew: -1, CrashedCount: n - len(survivors)}
	for i, v := range orig {
		if v == src {
			sc.SrcNew = int32(i)
			break
		}
	}
	return sc
}

// ReachableFromSource returns how many survivors (including the source)
// the source can reach in the faulted topology — the best any broadcast
// can do.
func (s *Scenario) ReachableFromSource() int {
	if s.SrcNew < 0 {
		return 0
	}
	dist := graph.Distances(s.Sub, s.SrcNew)
	count := 0
	for _, d := range dist {
		if d >= 0 {
			count++
		}
	}
	return count
}

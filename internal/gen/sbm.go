package gen

// Stochastic block model: a planted-partition random graph. Used by
// experiment E17 to probe how the paper's algorithms behave when the
// G(n,p) homogeneity assumption is broken by community structure — the
// inter-community edge probability controls a bottleneck the uniform
// analysis does not see.

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// SBM samples a stochastic block model with the given block sizes:
// vertices are assigned to blocks contiguously (block 0 first), a pair in
// the same block is an edge with probability pIn, a cross-block pair with
// probability pOut.
func SBM(blockSizes []int, pIn, pOut float64, rng *xrand.Rand) *graph.Graph {
	if pIn < 0 || pIn > 1 || pOut < 0 || pOut > 1 {
		panic("gen: SBM probabilities out of [0,1]")
	}
	n := 0
	for _, s := range blockSizes {
		if s < 0 {
			panic("gen: negative block size")
		}
		n += s
	}
	b := graph.NewBuilder(n)
	// Block boundaries.
	starts := make([]int, len(blockSizes)+1)
	for i, s := range blockSizes {
		starts[i+1] = starts[i] + s
	}
	// Intra-block edges: a G(s, pIn) per block, offset into place.
	for i, s := range blockSizes {
		off := int32(starts[i])
		sub := Gnp(s, pIn, rng)
		sub.Edges(func(u, v int32) bool {
			b.AddEdge(u+off, v+off)
			return true
		})
	}
	// Inter-block edges: geometric skipping over each block pair's
	// bipartite pair space.
	for i := range blockSizes {
		for j := i + 1; j < len(blockSizes); j++ {
			addBipartite(b, starts[i], blockSizes[i], starts[j], blockSizes[j], pOut, rng)
		}
	}
	return b.Build()
}

// TwoBlocks is the common two-community case with equal halves.
func TwoBlocks(n int, pIn, pOut float64, rng *xrand.Rand) *graph.Graph {
	if n < 2 {
		panic(fmt.Sprintf("gen: TwoBlocks needs n >= 2, got %d", n))
	}
	return SBM([]int{n / 2, n - n/2}, pIn, pOut, rng)
}

// addBipartite adds each pair (a+i, b+j) as an edge with probability p
// using geometric skipping over the i·nb + j enumeration.
func addBipartite(bld *graph.Builder, aStart, na, bStart, nb int, p float64, rng *xrand.Rand) {
	if p <= 0 || na == 0 || nb == 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				bld.AddEdge(int32(aStart+i), int32(bStart+j))
			}
		}
		return
	}
	total := int64(na) * int64(nb)
	log1mp := math.Log1p(-p)
	k := int64(rng.GeometricLog(log1mp))
	for k < total {
		i := k / int64(nb)
		j := k % int64(nb)
		bld.AddEdge(int32(aStart)+int32(i), int32(bStart)+int32(j))
		k += 1 + int64(rng.GeometricLog(log1mp))
	}
}

package structure

// This file measures the BFS-layer structure of graphs, the subject of
// Lemma 3: layers T_i(u) grow geometrically like d^i, intra-layer edges
// are rare, and few vertices of a layer share more than one common
// neighbour — random graphs look locally like trees.

import (
	"math"

	"repro/internal/graph"
)

// LayerStat describes one BFS layer T_i(u).
type LayerStat struct {
	Depth int
	Size  int
	// IntraEdges is the number of edges with both endpoints in the layer.
	IntraEdges int
	// MultiParent is the number of layer members with two or more
	// neighbours in the PREVIOUS layer (violating the tree picture).
	MultiParent int
	// ShareOneNext is the number of layer members that share at least one
	// common neighbour in the NEXT layer with another layer member.
	ShareOneNext int
	// ShareTwoNext is the number of layer members that share at least two
	// common neighbours in the next layer with some other single member
	// ("more than 1 joint neighbour" in Lemma 3's phrasing).
	ShareTwoNext int
}

// LayerProfile is the full per-layer breakdown of a BFS from one source.
type LayerProfile struct {
	Source int32
	Layers []LayerStat
	// Reachable is the number of vertices reachable from the source.
	Reachable int
}

// Depth returns the eccentricity of the source (index of the last layer).
func (p *LayerProfile) Depth() int { return len(p.Layers) - 1 }

// AnalyzeLayers computes the Lemma 3 statistics for the BFS from src.
// The per-layer joint-neighbour counts are quadratic in the layer size in
// the worst case, so analysis of huge dense layers samples is the caller's
// concern; for the graph sizes used in the experiments full counting is
// affordable because layers stay near-tree-like.
func AnalyzeLayers(g *graph.Graph, src int32) *LayerProfile {
	dist := graph.Distances(g, src)
	layers := graph.LayersFromDist(dist)
	p := &LayerProfile{Source: src, Layers: make([]LayerStat, len(layers))}
	for i, layer := range layers {
		st := LayerStat{Depth: i, Size: len(layer)}
		p.Reachable += len(layer)
		st.IntraEdges = graph.CountEdgesWithin(g, layer)
		if i > 0 {
			for _, v := range layer {
				parents := 0
				for _, w := range g.Neighbors(v) {
					if dist[w] == int32(i-1) {
						parents++
					}
				}
				if parents >= 2 {
					st.MultiParent++
				}
			}
		}
		if i+1 < len(layers) {
			next := int32(i + 1)
			one, two := graph.JointNeighborCounts(g, layer, func(w int32) bool {
				return dist[w] == next
			})
			for j := range layer {
				if one[j] > 0 {
					st.ShareOneNext++
				}
				if two[j] > 0 {
					st.ShareTwoNext++
				}
			}
		}
		p.Layers[i] = st
	}
	return p
}

// GrowthRatios returns |T_{i+1}| / |T_i| for consecutive layers. Lemma 3
// predicts ratios ≈ d while layers are small compared to n/d.
func (p *LayerProfile) GrowthRatios() []float64 {
	if len(p.Layers) < 2 {
		return nil
	}
	out := make([]float64, 0, len(p.Layers)-1)
	for i := 0; i+1 < len(p.Layers); i++ {
		if p.Layers[i].Size == 0 {
			out = append(out, math.NaN())
			continue
		}
		out = append(out, float64(p.Layers[i+1].Size)/float64(p.Layers[i].Size))
	}
	return out
}

// BigLayerCount returns the number of layers of size at least n/d³, which
// Lemma 3 bounds by a constant.
func (p *LayerProfile) BigLayerCount(n int, d float64) int {
	if d <= 0 {
		return 0
	}
	threshold := float64(n) / (d * d * d)
	count := 0
	for _, st := range p.Layers {
		if float64(st.Size) >= threshold {
			count++
		}
	}
	return count
}

// Package gen generates the graph families used in the paper and its
// experiments: the Gilbert model G(n,p) (the paper's primary model), the
// Erdős–Rényi model G(n,m) ("our results also hold for the Erdős–Rényi
// graphs", §1.1), and the comparison topologies of the related-work section
// (hypercubes, bounded-degree/random-regular graphs) plus deterministic
// reference graphs and random geometric graphs for the ad-hoc wireless
// examples.
//
// All generators are deterministic functions of their *xrand.Rand argument,
// so experiments reproduce exactly from recorded seeds.
package gen

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Gnp samples the Gilbert random graph G(n,p): every unordered pair is an
// edge independently with probability p. Expected running time is
// O(n + m) using geometric skip sampling over the implicit enumeration of
// pairs (0,1), (0,2), ..., (n-2, n-1).
func Gnp(n int, p float64, rng *xrand.Rand) *graph.Graph {
	return (*Scratch)(nil).Gnp(n, p, rng)
}

// Scratch is reusable storage for drawing random graphs: the CSR arrays,
// the builder's edge and degree buffers and the connectivity test's search
// state. A draw into a Scratch returns the same graph, from the same
// randomness, as the fresh generator, and once the buffers have grown to
// the largest graph drawn it allocates nothing.
//
// The graph a draw returns lives in the scratch: the next draw rewrites it
// in place, under the same pointer. It belongs to the scratch's holder
// until then, and must never be cached, handed to another goroutine or
// run through exec's per-graph engine pool (exec.Request.Pool).
//
// A nil *Scratch draws into fresh storage; Gnp and ConnectedGnp are the
// nil case. The zero value is ready. A Scratch is not safe for concurrent
// use.
type Scratch struct {
	g graph.Graph
	b graph.Builder
	t graph.Traversal
}

// builder returns an empty builder for n vertices: the scratch's own, or a
// fresh one for a nil scratch.
func (s *Scratch) builder(n int) *graph.Builder {
	if s == nil {
		return graph.NewBuilder(n)
	}
	s.b.Reset(n)
	return &s.b
}

// build finishes a draw: into the scratch's graph, or a fresh one for a
// nil scratch.
func (s *Scratch) build(b *graph.Builder) *graph.Graph {
	if s == nil {
		return b.Build()
	}
	return b.BuildInto(&s.g)
}

// Gnp is the package-level Gnp drawn into s.
func (s *Scratch) Gnp(n int, p float64, rng *xrand.Rand) *graph.Graph {
	if n < 0 {
		panic("gen: negative n")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: Gnp probability %v out of [0,1]", p))
	}
	b := s.builder(n)
	if n < 2 || p == 0 {
		return s.build(b)
	}
	total := int64(n) * int64(n-1) / 2
	expected := int(float64(total) * p)
	b.Grow(expected + expected/8 + 16)
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdgeUnchecked(int32(u), int32(v))
			}
		}
		return s.build(b)
	}
	// Enumerate pair index k in [0, total); skip Geometric(p) pairs between
	// successive edges. Convert k to (u, v) incrementally.
	u, v := int64(0), int64(0) // v is the offset within row u, edges are (u, u+1+v)
	rowLen := int64(n - 1)     // number of pairs in row u
	advance := func(k int64) bool {
		v += k
		for v >= rowLen {
			v -= rowLen
			u++
			rowLen--
			if rowLen <= 0 {
				return false
			}
		}
		return true
	}
	// Hoist the invariant log out of the geometric sampler; GeometricLog is
	// bitwise identical to Geometric(p), so recorded seeds reproduce the
	// same graphs as before.
	log1mp := math.Log1p(-p)
	if !advance(int64(rng.GeometricLog(log1mp))) {
		return s.build(b)
	}
	for {
		b.AddEdgeUnchecked(int32(u), int32(u+1+v))
		if !advance(1 + int64(rng.GeometricLog(log1mp))) {
			break
		}
	}
	return s.build(b)
}

// Gnm samples the Erdős–Rényi random graph G(n,m): a graph chosen uniformly
// among all graphs with n vertices and m edges. It panics if m exceeds the
// number of available pairs.
func Gnm(n, m int, rng *xrand.Rand) *graph.Graph {
	total := int64(n) * int64(n-1) / 2
	if int64(m) > total || m < 0 {
		panic(fmt.Sprintf("gen: Gnm with m=%d outside [0,%d]", m, total))
	}
	b := graph.NewBuilder(n)
	b.Grow(m)
	// Rejection sampling over pair ids is fast while m << total; for dense
	// requests fall back to sampling pair indices without replacement via a
	// partial shuffle on the implicit pair space using a map.
	seen := make(map[int64]bool, 2*m)
	for len(seen) < m {
		k := int64(rng.Uint64n(uint64(total)))
		if !seen[k] {
			seen[k] = true
			u, v := pairFromIndex(n, k)
			b.AddEdgeUnchecked(u, v)
		}
	}
	return b.Build()
}

// pairFromIndex maps a pair index k in [0, n(n-1)/2) to the k-th unordered
// pair (u,v), u < v, in row-major order.
func pairFromIndex(n int, k int64) (int32, int32) {
	// Row u contains (n-1-u) pairs. Solve for u by the quadratic formula
	// and fix up rounding.
	nn := int64(n)
	u := int64(float64(2*nn-1)/2 - math.Sqrt(float64((2*nn-1)*(2*nn-1))/4-2*float64(k)))
	if u < 0 {
		u = 0
	}
	rowStart := func(u int64) int64 { return u*nn - u*(u+1)/2 }
	for u > 0 && rowStart(u) > k {
		u--
	}
	for rowStart(u+1) <= k {
		u++
	}
	v := u + 1 + (k - rowStart(u))
	return int32(u), int32(v)
}

// RandomRegular samples an (approximately uniform) random d-regular graph
// on n vertices via the configuration/pairing model with restarts: d·n must
// be even. Pairings that produce loops or multi-edges are rejected and
// retried, which is fast for d up to Θ(√n); beyond that the generator
// falls back to accepting the simple subgraph (degree then ≤ d) after a
// bounded number of restarts, which is the standard practical compromise.
func RandomRegular(n, d int, rng *xrand.Rand) *graph.Graph {
	if d < 0 || d >= n {
		panic(fmt.Sprintf("gen: RandomRegular requires 0 <= d < n, got d=%d n=%d", d, n))
	}
	if n*d%2 != 0 {
		panic("gen: RandomRegular requires n*d even")
	}
	const maxRestarts = 64
	points := make([]int32, n*d)
	for restart := 0; ; restart++ {
		for i := range points {
			points[i] = int32(i / d)
		}
		rng.Shuffle32(points)
		ok := true
		seen := make(map[int64]bool, n*d/2)
		b := graph.NewBuilder(n)
		b.Grow(n * d / 2)
		for i := 0; i < len(points); i += 2 {
			u, v := points[i], points[i+1]
			if u == v {
				ok = false
				break
			}
			key := int64(min32(u, v))<<32 | int64(max32(u, v))
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			b.AddEdgeUnchecked(min32(u, v), max32(u, v))
		}
		if ok {
			return b.Build()
		}
		if restart >= maxRestarts {
			// Practical fallback: keep the simple subgraph of the pairing.
			b := graph.NewBuilder(n)
			seen := make(map[int64]bool, n*d/2)
			for i := 0; i < len(points); i += 2 {
				u, v := points[i], points[i+1]
				if u == v {
					continue
				}
				key := int64(min32(u, v))<<32 | int64(max32(u, v))
				if seen[key] {
					continue
				}
				seen[key] = true
				b.AddEdgeUnchecked(min32(u, v), max32(u, v))
			}
			return b.Build()
		}
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Geometric samples a random geometric graph: n points uniform in the unit
// square, an edge between points at Euclidean distance at most radius. This
// is the classical model of ad-hoc wireless deployments and is used by the
// sensor-field example. A grid-bucket index keeps generation near-linear.
func Geometric(n int, radius float64, rng *xrand.Rand) *graph.Graph {
	if radius < 0 {
		panic("gen: negative radius")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return geometricFromPoints(xs, ys, radius)
}

// GeometricPoints is like Geometric but also returns the sampled
// coordinates, for examples that want to draw or reason about the layout.
func GeometricPoints(n int, radius float64, rng *xrand.Rand) (*graph.Graph, []float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return geometricFromPoints(xs, ys, radius), xs, ys
}

func geometricFromPoints(xs, ys []float64, radius float64) *graph.Graph {
	n := len(xs)
	b := graph.NewBuilder(n)
	if n == 0 || radius == 0 {
		return b.Build()
	}
	cell := radius
	if cell > 1 {
		cell = 1
	}
	side := int(1/cell) + 1
	buckets := make(map[[2]int][]int32)
	key := func(i int) [2]int {
		return [2]int{int(xs[i] / cell), int(ys[i] / cell)}
	}
	for i := 0; i < n; i++ {
		k := key(i)
		buckets[k] = append(buckets[k], int32(i))
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		k := key(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				nk := [2]int{k[0] + dx, k[1] + dy}
				if nk[0] < 0 || nk[1] < 0 || nk[0] > side || nk[1] > side {
					continue
				}
				for _, j := range buckets[nk] {
					if int32(i) >= j {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdgeUnchecked(int32(i), j)
					}
				}
			}
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices, one of
// the bounded-degree comparison topologies of §1.2.
func Hypercube(dim int) *graph.Graph {
	if dim < 0 || dim > 30 {
		panic("gen: hypercube dimension out of range")
	}
	n := 1 << dim
	b := graph.NewBuilder(n)
	b.Grow(n * dim / 2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdgeUnchecked(int32(v), int32(w))
			}
		}
	}
	return b.Build()
}

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdgeUnchecked(int32(i), int32(i+1))
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: Cycle requires n >= 3")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdgeUnchecked(int32(i), int32(i+1))
	}
	b.AddEdgeUnchecked(0, int32(n-1))
	return b.Build()
}

// Star returns the star graph with centre 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdgeUnchecked(0, int32(i))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	b.Grow(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeUnchecked(int32(i), int32(j))
		}
	}
	return b.Build()
}

// PForDegree returns the edge probability giving expected average degree d
// in G(n,p), i.e. p = d/n clamped to [0,1]. (The paper writes d = pn.)
func PForDegree(n int, d float64) float64 {
	if n <= 1 {
		return 0
	}
	p := d / float64(n)
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// ConnectedGnp repeatedly samples G(n,p) until the sample is connected, up
// to maxTries attempts, and returns the sample and the number of attempts
// used. If no connected sample is found it returns the last sample and
// ok = false. For p above the connectivity threshold one attempt almost
// always suffices.
func ConnectedGnp(n int, p float64, rng *xrand.Rand, maxTries int) (g *graph.Graph, tries int, ok bool) {
	return (*Scratch)(nil).ConnectedGnp(n, p, rng, maxTries)
}

// ConnectedGnp is the package-level ConnectedGnp drawn into s. Every
// attempt rewrites the scratch's graph, so a failed search returns the
// last sample there too.
func (s *Scratch) ConnectedGnp(n int, p float64, rng *xrand.Rand, maxTries int) (g *graph.Graph, tries int, ok bool) {
	if maxTries < 1 {
		maxTries = 1
	}
	search := new(graph.Traversal)
	if s != nil {
		search = &s.t
	}
	for t := 1; t <= maxTries; t++ {
		g = s.Gnp(n, p, rng)
		if search.IsConnected(g) {
			return g, t, true
		}
	}
	return g, maxTries, false
}

// DensifiedComplement returns G(n, 1-f): the dense regime discussed at the
// end of §3.1, where each pair is an edge with probability 1 − f.
func DensifiedComplement(n int, f float64, rng *xrand.Rand) *graph.Graph {
	return Gnp(n, 1-f, rng)
}

// Package graph provides the undirected-graph substrate used throughout the
// repository: a compressed-sparse-row (CSR) adjacency structure,
// a builder that deduplicates edges, and the traversal and measurement
// primitives (BFS, layer decomposition, connectivity, eccentricity, degree
// statistics, joint-neighbour counts) needed by the radio-broadcasting
// algorithms and the structural experiments of Lemmas 3 and 4.
//
// Vertices are identified by int32 indices in [0, N()). Graphs are simple
// (no self-loops, no parallel edges) and undirected: each edge {u, v}
// appears in both adjacency lists.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Graph is a simple undirected graph in CSR form. Memory use is 4 bytes per
// directed arc plus 8 bytes per vertex, so graphs with tens of millions of
// edges fit comfortably in RAM.
//
// A graph is never modified once built, with one exception: a build into
// reused storage (Builder.BuildInto with a non-nil dst, as gen.Scratch
// does) rewrites dst in place. Such a graph belongs to the holder of that
// storage until the next build into it, and must never be cached, shared
// with another goroutine or keyed on by pointer, as exec's per-graph
// engine pool (exec.Request.Pool) does: every reader would see the next
// graph under the same pointer.
type Graph struct {
	offsets []int64 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // sorted neighbour lists, concatenated
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, in O(log deg) time.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Edges calls fn once per undirected edge with u < v. If fn returns false,
// iteration stops.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// String returns a short description such as "graph(n=100, m=512)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

// Builder accumulates edges and produces a Graph. Duplicate
// edges and self-loops are silently dropped at Build time, so generators
// may add candidate edges without pre-deduplication.
//
// Build runs in O(n + m): degrees are counted as edges arrive, the CSR
// arrays are filled by a two-pass counting-sort scatter, and per-list
// fix-ups (sorting, deduplication) run only when the insertion order made
// them necessary. Generators that guarantee normalized, distinct edges can
// skip validation entirely with AddEdgeUnchecked.
type Builder struct {
	n     int
	edges []edge
	deg   []int32 // running per-vertex degree (including duplicate adds)
	lastU int32   // previous edge, for insertion-order tracking
	lastV int32
	// ordered reports that all edges so far arrived in strictly increasing
	// (u, v) lexicographic order. Ordered input yields sorted adjacency
	// lists straight out of the scatter pass and cannot contain duplicates,
	// so Build skips every fix-up.
	ordered bool
	// sawChecked reports that at least one edge came through AddEdge, whose
	// contract tolerates duplicates; Build then needs a dedup pass when the
	// input was not ordered.
	sawChecked bool
	// sink absorbs scatterInt32's look-ahead loads so they cannot be
	// optimised away. Never read; per-builder so concurrent Builds (one
	// builder per goroutine) do not share a write target.
	sink int32
}

type edge struct{ u, v int32 }

const maxInt32 = 1<<31 - 1

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	b := new(Builder)
	b.Reset(n)
	return b
}

// Reset empties the builder and aims it at a graph on n vertices. It keeps
// the edge and degree buffers a build into reused storage (BuildInto with
// a non-nil dst) leaves behind, so a builder that alternates Reset and
// BuildInto stops allocating once they have grown to the largest graph.
// The zero Builder is ready after a Reset.
func (b *Builder) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	b.n = n
	b.edges = b.edges[:0]
	if cap(b.deg) >= n {
		b.deg = b.deg[:n]
		clear(b.deg)
	} else {
		b.deg = nil
	}
	b.ordered, b.sawChecked = true, false
	b.lastU, b.lastV = -1, -1
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// edgePool recycles the edge lists of large one-shot builds: Grow takes a
// list from it and Build hands the list back once the CSR arrays are
// filled. The lists never escape a Builder, so reuse is invisible to
// callers. The CSR arrays of such a build are always fresh; a caller that
// wants them reused builds into its own storage (BuildInto), and its
// builder then keeps its edge list instead of pooling it. Lists under
// poolMinEdges are not worth pooling.
var edgePool sync.Pool // of *[]edge

const poolMinEdges = 1 << 16

// Grow reserves capacity for m additional edges.
func (b *Builder) Grow(m int) {
	need := len(b.edges) + m
	if cap(b.edges) >= need {
		return
	}
	var grown []edge
	if need >= poolMinEdges {
		// A pooled list too small for this build is left to the collector.
		if p, _ := edgePool.Get().(*[]edge); p != nil && cap(*p) >= need {
			grown = (*p)[:len(b.edges)]
		}
	}
	if grown == nil {
		grown = make([]edge, len(b.edges), need)
	}
	copy(grown, b.edges)
	b.edges = grown
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored. It
// panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) {
	if uint64(u) >= uint64(b.n) || uint64(v) >= uint64(b.n) {
		b.rangePanic(u, v)
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.sawChecked = true
	b.push(u, v)
}

// AddEdgeUnchecked records the undirected edge {u, v} without validation or
// deduplication. The caller guarantees 0 <= u < v < N() and that the edge
// is distinct from every other edge added to this builder; violating the
// contract corrupts the resulting graph. Generators whose construction
// already guarantees normalized, distinct edges (G(n,p) skip sampling,
// hypercubes, pairing models with an explicit seen-set, ...) use this path
// so Build never has to deduplicate. Edges added in strictly increasing
// (u, v) lexicographic order additionally let Build skip all per-list
// sorting.
func (b *Builder) AddEdgeUnchecked(u, v int32) {
	b.push(u, v)
}

// push appends an edge, maintaining the running degree counts and the
// insertion-order flag.
func (b *Builder) push(u, v int32) {
	if u < b.lastU || (u == b.lastU && v <= b.lastV) {
		b.ordered = false
	}
	b.lastU, b.lastV = u, v
	if b.deg == nil {
		b.deg = make([]int32, b.n)
	}
	b.deg[u]++
	b.deg[v]++
	b.edges = append(b.edges, edge{u, v})
}

func (b *Builder) rangePanic(u, v int32) {
	panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
}

// EdgeCount returns the number of edges recorded so far (before dedup).
func (b *Builder) EdgeCount() int { return len(b.edges) }

// Build produces the graph in freshly allocated CSR arrays, each exactly
// its final size, and leaves the builder empty for another graph on the
// same n vertices: its edge list goes back to the pool and its degree
// counts to the collector. It is BuildInto(nil).
func (b *Builder) Build() *Graph { return b.BuildInto(nil) }

// BuildInto produces the graph and leaves the builder empty for another
// graph on the same n vertices. It runs in O(n + m): a prefix sum over the
// degree counts followed by one counting-sort scatter of the edge list.
// Lists are then sorted or deduplicated only if the insertion order made
// that necessary — for lexicographically ordered input (the G(n,p)
// generator's natural emission order) the scatter output is already sorted
// and duplicate-free, and no fix-up runs at all.
//
// With a nil dst it returns a new Graph, as Build. With a non-nil dst it
// writes the CSR arrays into dst's storage and returns dst: an array is
// reallocated only when too small, with 1/64 headroom on the arcs so that
// the next sample of a random graph family, slightly larger, still fits.
// The builder then keeps its edge and degree buffers for the next build.
// dst is rewritten in place; see Graph for who may still hold it.
func (b *Builder) BuildInto(dst *Graph) *Graph {
	g := dst
	if g == nil {
		g = &Graph{offsets: make([]int64, b.n+1)}
	} else {
		g.offsets = resize(g.offsets, b.n+1, 0)
	}
	offsets := g.offsets
	var total int64
	if b.deg != nil {
		// The same pass that builds the offsets rewrites the degree counts as
		// int32 scatter cursors (truncation is harmless: the int32 cursors are
		// only used when the final total fits, and deg is cleared or dropped
		// either way).
		for v := 0; v < b.n; v++ {
			d := b.deg[v]
			offsets[v] = total
			b.deg[v] = int32(total)
			total += int64(d)
		}
	} else {
		clear(offsets) // reused storage holds the previous graph's offsets
	}
	offsets[b.n] = total
	if dst == nil {
		g.adj = make([]int32, total)
	} else {
		g.adj = resize(g.adj, int(total), int(total>>6))
	}
	adj := g.adj
	if total <= maxInt32 {
		// Common case: arc indices fit in int32, so the recycled degree array
		// serves as the cursors — no extra allocation, and the randomly-accessed
		// cursor array is half the size of an int64 one.
		b.scatterInt32(adj, b.deg)
	} else {
		cursor := make([]int64, b.n)
		copy(cursor, offsets[:b.n])
		for _, e := range b.edges {
			adj[cursor[e.u]] = e.v
			cursor[e.u]++
			adj[cursor[e.v]] = e.u
			cursor[e.v]++
		}
	}
	if !b.ordered {
		// Out-of-order input: sort the (few, or all) lists the scatter left
		// unsorted, then deduplicate if any edge came through AddEdge.
		for v := int32(0); int(v) < b.n; v++ {
			nb := g.adj[g.offsets[v]:g.offsets[v+1]]
			if !sorted32(nb) {
				sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
			}
		}
		if b.sawChecked {
			g.compactDuplicates()
		}
	}
	if dst == nil {
		if cap(b.edges) >= poolMinEdges {
			spent := b.edges[:0]
			edgePool.Put(&spent)
		}
		b.edges, b.deg = nil, nil
	}
	b.Reset(b.n)
	return g
}

// resize returns s at length n, in place when its capacity allows and
// otherwise in a new array with headroom spare elements.
func resize[T any](s []T, n, headroom int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+headroom)
}

// scatterInt32 fills adj from the recorded edge list; cur[v] holds the next
// write position of vertex v's list and is advanced in place.
//
// For ordered input the two arc directions are scattered in separate
// passes. Lexicographic order means every smaller-neighbour arc of a vertex
// precedes all its larger-neighbour arcs, so the v-side pass lays down each
// list's head and the u-side pass appends its tail — and because equal-u
// edges are contiguous, the u-side pass loads one cursor per vertex and
// streams its writes sequentially. That halves the randomly-addressed
// traffic; only the v-side writes remain scattered, and those are paced by
// an explicit look-ahead touch of the cursor line (see Builder.sink).
func (b *Builder) scatterInt32(adj []int32, cur []int32) {
	// Cursor accesses miss cache unpredictably, and the loop's short
	// dependence chains leave the memory pipeline underused. Touching the
	// cursor pfDist iterations ahead starts those misses early; the loads
	// feed a package-level sink so they cannot be optimised away.
	const pfDist = 16
	var sink int32
	edges := b.edges
	if !b.ordered {
		i := 0
		for ; i+pfDist < len(edges); i++ {
			sink += cur[edges[i+pfDist].u] + cur[edges[i+pfDist].v]
			e := edges[i]
			cu := cur[e.u]
			cur[e.u] = cu + 1
			adj[cu] = e.v
			cv := cur[e.v]
			cur[e.v] = cv + 1
			adj[cv] = e.u
		}
		for ; i < len(edges); i++ {
			e := edges[i]
			cu := cur[e.u]
			cur[e.u] = cu + 1
			adj[cu] = e.v
			cv := cur[e.v]
			cur[e.v] = cv + 1
			adj[cv] = e.u
		}
		b.sink = sink
		return
	}
	i := 0
	for ; i+pfDist < len(edges); i++ {
		sink += cur[edges[i+pfDist].v]
		e := edges[i]
		c := cur[e.v]
		cur[e.v] = c + 1
		adj[c] = e.u
	}
	for ; i < len(edges); i++ {
		e := edges[i]
		c := cur[e.v]
		cur[e.v] = c + 1
		adj[c] = e.u
	}
	b.sink = sink
	for i := 0; i < len(edges); {
		u := edges[i].u
		c := cur[u]
		for i < len(edges) && edges[i].u == u {
			adj[c] = edges[i].v
			c++
			i++
		}
	}
}

// compactDuplicates removes repeated entries from every (sorted) adjacency
// list in one in-place sweep, rewriting the offsets accordingly.
func (g *Graph) compactDuplicates() {
	w := int64(0)
	dropped := false
	for v := 0; v < g.N(); v++ {
		start, end := g.offsets[v], g.offsets[v+1]
		g.offsets[v] = w
		prev := int32(-1)
		for i := start; i < end; i++ {
			x := g.adj[i]
			if x != prev {
				g.adj[w] = x
				w++
				prev = x
			} else {
				dropped = true
			}
		}
	}
	g.offsets[len(g.offsets)-1] = w
	if dropped {
		g.adj = g.adj[:w]
	}
}

func sorted32(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// Subgraph returns the induced subgraph on the given vertices together with
// the mapping from new indices to original vertex ids. Vertices may be
// listed in any order; duplicates are rejected.
func (g *Graph) Subgraph(vertices []int32) (*Graph, []int32) {
	index := make(map[int32]int32, len(vertices))
	orig := make([]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= g.N() {
			panic(fmt.Sprintf("graph: Subgraph vertex %d out of range [0,%d)", v, g.N()))
		}
		if _, dup := index[v]; dup {
			panic("graph: duplicate vertex in Subgraph")
		}
		index[v] = int32(i)
		orig[i] = v
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if j, ok := index[w]; ok && int32(i) < j {
				b.AddEdge(int32(i), j)
			}
		}
	}
	return b.Build(), orig
}

// DegreeStats summarises the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees returns the degree statistics of g. For the empty graph all
// fields are zero.
func (g *Graph) Degrees() DegreeStats {
	n := g.N()
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	total := 0
	for v := int32(0); int(v) < n; v++ {
		d := g.Degree(v)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(n)
	return st
}

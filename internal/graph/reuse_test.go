package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// Builds into reused storage (BuildInto with a non-nil dst) and searches
// on a reused Traversal must give exactly what the fresh forms give, and
// must stop allocating once their buffers have grown.

// buildCase is one builder input: its edges, and whether they go through
// AddEdge (duplicates, self-loops and reversed pairs allowed) or
// AddEdgeUnchecked (distinct, normalized).
type buildCase struct {
	name    string
	n       int
	edges   [][2]int32
	checked bool
}

func (c buildCase) fill(b *Builder) {
	for _, e := range c.edges {
		if c.checked {
			b.AddEdge(e[0], e[1])
		} else {
			b.AddEdgeUnchecked(e[0], e[1])
		}
	}
}

// buildCases returns the insertion paths on n vertices: distinct edges in
// lexicographic order (no fix-up runs), the same edges shuffled (lists
// are sorted after the scatter), a checked multiset with duplicates,
// self-loops and reversed pairs (compactDuplicates truncates the arcs),
// and no edges at all.
func buildCases(rng *xrand.Rand, n int) []buildCase {
	seen := make(map[[2]int32]bool)
	var distinct [][2]int32
	for len(distinct) < 4*n {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		e := [2]int32{min(u, v), max(u, v)}
		if u != v && !seen[e] {
			seen[e] = true
			distinct = append(distinct, e)
		}
	}
	shuffled := slices.Clone(distinct)
	slices.SortFunc(distinct, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	multi := slices.Clone(shuffled)
	for i := 0; i < n; i++ {
		e := shuffled[rng.Intn(len(shuffled))]
		multi = append(multi, [2]int32{e[1], e[0]}, [2]int32{e[0], e[0]})
	}
	return []buildCase{
		{"ordered", n, distinct, false},
		{"unordered", n, shuffled, false},
		{"checked", n, multi, true},
		{"empty", n, nil, false},
	}
}

// TestBuildIntoMatchesBuild builds every insertion path into one reused
// graph, over an n sequence that grows, shrinks and grows again, so dst
// is by turns too small, large enough and built for another n. Each input
// is built three times: through a new builder, which has no degree counts
// when the input has no edges, through one reused builder, and again
// through that one without a Reset. Every build must equal a fresh Build.
func TestBuildIntoMatchesBuild(t *testing.T) {
	rng := xrand.New(26)
	var dst Graph
	var b Builder
	fits := map[bool]int{}
	for _, n := range []int{300, 40, 1000, 300, 1200} {
		for _, c := range buildCases(rng, n) {
			name := fmt.Sprintf("n=%d/%s", n, c.name)
			fresh := NewBuilder(n)
			c.fill(fresh)
			want := fresh.Build()
			fits[cap(dst.offsets) >= n+1 && cap(dst.adj) >= 2*want.M()]++
			b.Reset(n)
			for pass, b := range []*Builder{NewBuilder(n), &b, &b} {
				c.fill(b)
				got := b.BuildInto(&dst)
				if got != &dst {
					t.Fatalf("%s: BuildInto returned a new graph, want dst", name)
				}
				if !sameCSR(got, want) {
					t.Fatalf("%s pass %d: graph differs from a fresh Build", name, pass)
				}
				if b.EdgeCount() != 0 {
					t.Fatalf("%s: EdgeCount after BuildInto = %d, want 0", name, b.EdgeCount())
				}
			}
		}
	}
	if fits[true] == 0 || fits[false] == 0 {
		t.Fatalf("dst fit %d times and was too small %d times; the sequence must cover both", fits[true], fits[false])
	}
}

// TestBuildAllocatesExactly pins that a fresh Build sizes its CSR arrays
// exactly, while a build that outgrows reused storage leaves headroom.
func TestBuildAllocatesExactly(t *testing.T) {
	c := buildCases(xrand.New(5), 500)[0]
	b := NewBuilder(c.n)
	c.fill(b)
	g := b.Build()
	if cap(g.offsets) != c.n+1 || cap(g.adj) != 2*len(c.edges) {
		t.Fatalf("fresh Build capacities offsets %d, adj %d; want exactly %d and %d",
			cap(g.offsets), cap(g.adj), c.n+1, 2*len(c.edges))
	}
	var dst Graph
	c.fill(b)
	b.BuildInto(&dst)
	if cap(dst.adj) <= len(dst.adj) {
		t.Fatalf("reused graph grown to %d arcs without headroom (cap %d)", len(dst.adj), cap(dst.adj))
	}
}

// TestBuildIntoSteadyStateAllocs requires a builder that alternates Reset
// and BuildInto on ordered input, the G(n, p) generator's path, to
// allocate nothing once its buffers and dst have grown.
func TestBuildIntoSteadyStateAllocs(t *testing.T) {
	c := buildCases(xrand.New(6), 2000)[0]
	var b Builder
	var dst Graph
	build := func() {
		b.Reset(c.n)
		b.Grow(len(c.edges))
		c.fill(&b)
		b.BuildInto(&dst)
	}
	build()
	if allocs := testing.AllocsPerRun(10, build); allocs != 0 {
		t.Fatalf("steady-state BuildInto allocates %.1f objects, want 0", allocs)
	}
}

// TestTraversalReuse runs one Traversal over graphs of growing, shrinking
// and growing n, connected or not: every answer must match a fresh
// IsConnected, and once grown the search allocates nothing.
func TestTraversalReuse(t *testing.T) {
	rng := xrand.New(8)
	var tr Traversal
	for _, n := range []int{500, 64, 3000, 500, 4000} {
		for _, m := range []int{n / 4, 4 * n} {
			b := NewBuilder(n)
			for i := 0; i < m; i++ {
				b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
			}
			g := b.Build()
			if got, want := tr.IsConnected(g), IsConnected(g); got != want {
				t.Fatalf("n=%d m=%d: reused Traversal says connected=%v, fresh says %v", n, m, got, want)
			}
			if allocs := testing.AllocsPerRun(5, func() { tr.IsConnected(g) }); allocs != 0 {
				t.Fatalf("n=%d m=%d: reused Traversal allocates %.1f objects, want 0", n, m, allocs)
			}
		}
	}
}

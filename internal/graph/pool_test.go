package graph

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// pooledEdges returns a fixed list of distinct edges, long enough that a
// builder sized for it draws its edge list from edgePool.
func pooledEdges(n int) [][2]int32 {
	rng := xrand.New(3)
	seen := make(map[[2]int32]bool)
	var edges [][2]int32
	for len(edges) < poolMinEdges+5000 {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u == v {
			continue
		}
		e := [2]int32{min(u, v), max(u, v)}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return edges
}

func buildPooled(n int, edges [][2]int32, grow int) *Graph {
	b := NewBuilder(n)
	b.Grow(grow)
	for _, e := range edges {
		b.AddEdgeUnchecked(e[0], e[1])
	}
	return b.Build()
}

func sameCSR(a, b *Graph) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.adj, b.adj)
}

// TestBuilderPooledEdgeLists builds the same graph repeatedly, with pooled
// lists of sufficient and insufficient capacity and from several
// goroutines at once (run it under -race), and requires every build to
// equal the first. A graph must never see another build's edges.
func TestBuilderPooledEdgeLists(t *testing.T) {
	const n = 5000
	edges := pooledEdges(n)
	want := buildPooled(n, edges, len(edges))
	if want.M() != len(edges) {
		t.Fatalf("built %d edges, want %d", want.M(), len(edges))
	}
	for _, grow := range []int{len(edges), 2 * len(edges), poolMinEdges, 0} {
		if got := buildPooled(n, edges, grow); !sameCSR(got, want) {
			t.Fatalf("Grow(%d): graph differs from the first build", grow)
		}
	}
	var wg sync.WaitGroup
	bad := make(chan int, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if !sameCSR(buildPooled(n, edges, len(edges)), want) {
					bad <- w
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	for w := range bad {
		t.Errorf("goroutine %d built a different graph", w)
	}
}

// TestBuilderReusableAfterPooledBuild checks that a builder whose list went
// back to the pool starts empty.
func TestBuilderReusableAfterPooledBuild(t *testing.T) {
	const n = 5000
	edges := pooledEdges(n)
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdgeUnchecked(e[0], e[1])
	}
	b.Build()
	if b.EdgeCount() != 0 {
		t.Fatalf("EdgeCount after Build = %d, want 0", b.EdgeCount())
	}
	b.AddEdge(0, 1)
	if g := b.Build(); g.M() != 1 || !g.HasEdge(0, 1) {
		t.Fatalf("second build: %v, want the single edge {0,1}", g)
	}
}

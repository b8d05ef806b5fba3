package graph

import (
	"testing"

	"repro/internal/xrand"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(2) != 1 {
		t.Fatalf("degree(2) = %d, want 1 (self-loop must be dropped)", g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestNeighborsSorted(t *testing.T) {
	rng := xrand.New(1)
	b := NewBuilder(50)
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Int31n(50), rng.Int31n(50))
	}
	g := b.Build()
	for v := int32(0); int(v) < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("neighbours of %d not strictly sorted: %v", v, nb)
			}
		}
	}
}

func TestDegreeSumEquals2M(t *testing.T) {
	rng := xrand.New(2)
	b := NewBuilder(100)
	for i := 0; i < 500; i++ {
		b.AddEdge(rng.Int31n(100), rng.Int31n(100))
	}
	g := b.Build()
	sum := 0
	for v := int32(0); int(v) < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2M %d", sum, 2*g.M())
	}
}

func TestEdgesIteration(t *testing.T) {
	g := complete(5)
	count := 0
	g.Edges(func(u, v int32) bool {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("Edges yielded %d edges, want 10", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v int32) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Edges early stop visited %d", count)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatal("empty graph malformed")
	}
	if !IsConnected(g) {
		t.Fatal("empty graph should count as connected")
	}
	st := g.Degrees()
	if st.Min != 0 || st.Max != 0 || st.Mean != 0 {
		t.Fatalf("empty degree stats: %+v", st)
	}
}

func TestBFSPath(t *testing.T) {
	g := path(6)
	dist := Distances(g, 0)
	for i := 0; i < 6; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := Distances(g, 0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatal("unreachable vertices not marked")
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	comps := Components(g)
	if len(comps) != 2 || len(comps[0]) != 2 || len(comps[1]) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	lc := LargestComponent(g)
	if len(lc) != 2 {
		t.Fatalf("LargestComponent size %d", len(lc))
	}
}

func TestLayers(t *testing.T) {
	// Star with centre 0: layer 0 = {0}, layer 1 = everything else.
	b := NewBuilder(6)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, int32(i))
	}
	g := b.Build()
	layers := Layers(g, 0)
	if len(layers) != 2 {
		t.Fatalf("star has %d layers from centre, want 2", len(layers))
	}
	if len(layers[0]) != 1 || layers[0][0] != 0 {
		t.Fatalf("layer 0 = %v", layers[0])
	}
	if len(layers[1]) != 5 {
		t.Fatalf("layer 1 has %d nodes", len(layers[1]))
	}
	// From a leaf: {leaf}, {centre}, {other leaves}.
	layers = Layers(g, 1)
	if len(layers) != 3 || len(layers[2]) != 4 {
		t.Fatalf("layers from leaf: %v", layers)
	}
}

func TestLayersPartitionVertices(t *testing.T) {
	rng := xrand.New(3)
	b := NewBuilder(200)
	// Random connected-ish graph: a spanning path plus random chords.
	for i := 0; i < 199; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Int31n(200), rng.Int31n(200))
	}
	g := b.Build()
	layers := Layers(g, 17)
	seen := make([]bool, 200)
	total := 0
	for d, layer := range layers {
		for _, v := range layer {
			if seen[v] {
				t.Fatalf("vertex %d in two layers", v)
			}
			seen[v] = true
			total++
			if got := Distances(g, 17)[v]; got != int32(d) {
				t.Fatalf("vertex %d in layer %d but distance %d", v, d, got)
			}
		}
	}
	if total != 200 {
		t.Fatalf("layers cover %d of 200 vertices", total)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := path(7)
	if e := Eccentricity(g, 0); e != 6 {
		t.Fatalf("ecc(end of P7) = %d, want 6", e)
	}
	if e := Eccentricity(g, 3); e != 3 {
		t.Fatalf("ecc(middle of P7) = %d, want 3", e)
	}
	if d := Diameter(g); d != 6 {
		t.Fatalf("diam(P7) = %d, want 6", d)
	}
	if d := Diameter(cycle(8)); d != 4 {
		t.Fatalf("diam(C8) = %d, want 4", d)
	}
	if d := Diameter(complete(5)); d != 1 {
		t.Fatalf("diam(K5) = %d, want 1", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	if d := Diameter(g); d != -1 {
		t.Fatalf("Diameter of disconnected graph = %d, want -1", d)
	}
}

func TestDiameterLowerMatchesExactOnSmallGraphs(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < n-1; i++ {
			b.AddEdge(int32(i), int32(i+1))
		}
		for i := 0; i < n/2; i++ {
			b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
		}
		g := b.Build()
		exact := Diameter(g)
		lower := DiameterLower(g, rng.Int31n(int32(n)))
		if lower > exact {
			t.Fatalf("trial %d: DiameterLower %d exceeds exact %d", trial, lower, exact)
		}
		if lower < exact/2 {
			t.Fatalf("trial %d: double sweep %d much below exact %d", trial, lower, exact)
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := complete(6)
	sub, orig := g.Subgraph([]int32{1, 3, 5})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced triangle wrong: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 3 || orig[2] != 5 {
		t.Fatalf("orig mapping %v", orig)
	}
	// Path 0-1-2-3: induced on {0, 2} has no edges.
	sub, _ = path(4).Subgraph([]int32{0, 2})
	if sub.M() != 0 {
		t.Fatalf("induced on non-adjacent vertices has %d edges", sub.M())
	}
}

func TestSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subgraph with duplicates did not panic")
		}
	}()
	complete(4).Subgraph([]int32{1, 1})
}

func TestDegrees(t *testing.T) {
	g := path(4) // degrees 1,2,2,1
	st := g.Degrees()
	if st.Min != 1 || st.Max != 2 || st.Mean != 1.5 {
		t.Fatalf("stats %+v", st)
	}
}

func TestJointNeighborCounts(t *testing.T) {
	// Vertices 1 and 2 share neighbour 0; vertices 3 and 4 share
	// neighbours 0 and 5 (two common neighbours).
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	b.AddEdge(5, 3)
	b.AddEdge(5, 4)
	g := b.Build()
	set := []int32{1, 2, 3, 4}
	one, two := JointNeighborCounts(g, set, nil)
	// Every pair among {1,2,3,4} shares neighbour 0, so each has 3
	// partners with >=1 common neighbour.
	for i, v := range set {
		if one[i] != 3 {
			t.Errorf("vertex %d: shareOne = %d, want 3", v, one[i])
		}
	}
	// Only the pair (3,4) shares two.
	want2 := map[int32]int{1: 0, 2: 0, 3: 1, 4: 1}
	for i, v := range set {
		if two[i] != want2[v] {
			t.Errorf("vertex %d: shareTwo = %d, want %d", v, two[i], want2[v])
		}
	}
}

func TestJointNeighborCountsRestricted(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(5, 1)
	b.AddEdge(5, 2)
	g := b.Build()
	set := []int32{1, 2}
	// Restrict middles to vertex 5 only: the pair still shares one middle.
	one, two := JointNeighborCounts(g, set, func(w int32) bool { return w == 5 })
	if one[0] != 1 || one[1] != 1 {
		t.Fatalf("restricted shareOne = %v", one)
	}
	if two[0] != 0 || two[1] != 0 {
		t.Fatalf("restricted shareTwo = %v", two)
	}
}

func TestCountEdgesWithinBetween(t *testing.T) {
	g := complete(6)
	within := CountEdgesWithin(g, []int32{0, 1, 2})
	if within != 3 {
		t.Fatalf("edges within triangle of K6 = %d, want 3", within)
	}
}

func TestHasEdgeBinarySearch(t *testing.T) {
	g := cycle(100)
	for i := int32(0); i < 100; i++ {
		if !g.HasEdge(i, (i+1)%100) {
			t.Fatalf("cycle edge (%d,%d) missing", i, (i+1)%100)
		}
		if g.HasEdge(i, (i+2)%100) {
			t.Fatalf("phantom chord (%d,%d)", i, (i+2)%100)
		}
	}
}

func TestStringer(t *testing.T) {
	if s := path(3).String(); s != "graph(n=3, m=2)" {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := xrand.New(1)
	const n = 10000
	const m = 100000
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n)
		bl.Grow(len(edges))
		for _, e := range edges {
			bl.AddEdge(e[0], e[1])
		}
		_ = bl.Build()
	}
}

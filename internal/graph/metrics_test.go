package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestTrianglesKnownGraphs(t *testing.T) {
	if got := Triangles(complete(3)); got != 1 {
		t.Fatalf("K3 triangles = %d", got)
	}
	if got := Triangles(complete(5)); got != 10 {
		t.Fatalf("K5 triangles = %d, want C(5,3)=10", got)
	}
	if got := Triangles(path(10)); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
	if got := Triangles(cycle(3)); got != 1 {
		t.Fatalf("C3 triangles = %d", got)
	}
	if got := Triangles(cycle(5)); got != 0 {
		t.Fatalf("C5 triangles = %d", got)
	}
}

func TestTrianglesMatchesBruteForce(t *testing.T) {
	rng := xrand.New(1)
	b := NewBuilder(30)
	for i := 0; i < 120; i++ {
		b.AddEdge(rng.Int31n(30), rng.Int31n(30))
	}
	g := b.Build()
	var brute int64
	for u := int32(0); u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			for w := v + 1; w < 30; w++ {
				if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
					brute++
				}
			}
		}
	}
	if got := Triangles(g); got != brute {
		t.Fatalf("Triangles = %d, brute force %d", got, brute)
	}
}

func TestGlobalClustering(t *testing.T) {
	if c := GlobalClustering(complete(6)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K6 clustering = %v", c)
	}
	if c := GlobalClustering(path(10)); c != 0 {
		t.Fatalf("path clustering = %v", c)
	}
	if c := GlobalClustering(NewBuilder(5).Build()); c != 0 {
		t.Fatalf("empty clustering = %v", c)
	}
}

func TestGlobalClusteringGnpNearP(t *testing.T) {
	// On G(n,p) the clustering coefficient concentrates near p.
	rng := xrand.New(2)
	const n = 600
	const p = 0.05
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bernoulli(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	g := b.Build()
	c := GlobalClustering(g)
	if math.Abs(c-p) > p/2 {
		t.Fatalf("G(n,%v) clustering = %v", p, c)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	b := NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Int31n(50), rng.Int31n(50))
	}
	g := b.Build()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		a, bb := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(bb) {
			t.Fatalf("vertex %d adjacency mismatch", v)
		}
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"nonsense",              // bad header
		"graph 3 1\n0 5\n",      // out of range
		"graph 3 1\n0\n",        // malformed line
		"graph 3 2\n0 1\n",      // edge count mismatch
		"graph 3 1\n0 x\n",      // non-numeric
		"graph 2 1\n0 1\n0 1\n", // duplicates dedup to the declared count: accepted
	}
	for i, c := range cases {
		_, err := ReadGraph(strings.NewReader(c))
		if i == len(cases)-1 {
			if err != nil {
				t.Fatalf("case %d: duplicate edges should dedup cleanly: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("case %d (%q): expected error", i, c)
		}
	}
}

func TestReadGraphSkipsCommentsAndBlanks(t *testing.T) {
	in := "graph 3 2\n# a comment\n0 1\n\n1 2\n"
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d", g.M())
	}
}

func BenchmarkTriangles(b *testing.B) {
	rng := xrand.New(1)
	bl := NewBuilder(2000)
	for i := 0; i < 20000; i++ {
		bl.AddEdge(rng.Int31n(2000), rng.Int31n(2000))
	}
	g := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Triangles(g)
	}
}

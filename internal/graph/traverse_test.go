package graph

// Differential, worst-case-work and benchmark coverage for the traversal
// kernel behind Distances and IsConnected. The references are the plain
// top-down queue BFS loops the kernel replaced; both outputs are
// independent of traversal order, so the kernel must match them exactly.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// refDistances is the naive top-down BFS: one queue, one distance check
// per arc.
func refDistances(g *Graph, src int32) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 1, n)
	queue[0] = src
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v] + 1
		for _, w := range g.Neighbors(v) {
			if dist[w] == Unreachable {
				dist[w] = dv
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// refIsConnected is the naive connectivity check: a top-down BFS from
// vertex 0 with a visited mark and a queue.
func refIsConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	visited := make([]bool, n)
	queue := make([]int32, 1, n)
	visited[0] = true
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Neighbors(queue[head]) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue) == n
}

// gnp samples G(n, p) by geometric skips over the pairs w < v.
func gnp(n int, p float64, rng *xrand.Rand) *Graph {
	b := NewBuilder(n)
	if p <= 0 {
		return b.Build()
	}
	for v, w := 1, -1; v < n; {
		w += 1 + rng.Geometric(math.Min(p, 1))
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(int32(w), int32(v))
		}
	}
	return b.Build()
}

// disjointUnion places the given graphs side by side, renumbering each
// after the ones before it.
func disjointUnion(parts ...*Graph) *Graph {
	n := 0
	for _, p := range parts {
		n += p.N()
	}
	b := NewBuilder(n)
	base := int32(0)
	for _, p := range parts {
		p.Edges(func(u, v int32) bool {
			b.AddEdge(base+u, base+v)
			return true
		})
		base += int32(p.N())
	}
	return b.Build()
}

// checkTraversal compares Distances from every listed source and
// IsConnected against the references.
func checkTraversal(t *testing.T, name string, g *Graph, sources []int32) {
	t.Helper()
	if got, want := IsConnected(g), refIsConnected(g); got != want {
		t.Fatalf("%s: IsConnected = %v, reference %v", name, got, want)
	}
	for _, s := range sources {
		got, want := Distances(g, s), refDistances(g, s)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: Distances(%d)[%d] = %d, reference %d", name, s, v, got[v], want[v])
			}
		}
	}
}

// someSources returns every vertex for small graphs and a spread of
// vertices (both ends included) for larger ones.
func someSources(n int) []int32 {
	if n <= 70 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	return []int32{0, 1, int32(n / 3), int32(n / 2), int32(n - 2), int32(n - 1)}
}

func TestTraversalMatchesReferenceOnGnp(t *testing.T) {
	rng := xrand.New(23)
	ns := []int{1, 2, 3, 5, 8, 13, 31, 63, 64, 65, 100, 127, 128, 129, 257, 500, 1000, 2000}
	for _, n := range ns {
		threshold := math.Log(float64(n)+1) / float64(n)
		// Below, near and above the connectivity threshold ln n / n, plus
		// a dense point where the search turns bottom-up after one level.
		for _, c := range []float64{0.3, 1, 3, 8} {
			p := c * threshold
			g := gnp(n, p, rng)
			checkTraversal(t, fmt.Sprintf("G(%d,%.3g)", n, p), g, someSources(n))
		}
		g := gnp(n, math.Min(1, 25/float64(n)), rng)
		checkTraversal(t, fmt.Sprintf("G(%d,25/n)", n), g, someSources(n))
	}
}

func TestTraversalMatchesReferenceOnComponents(t *testing.T) {
	rng := xrand.New(24)
	giant := gnp(600, 20.0/600, rng)
	cases := map[string]*Graph{
		// A giant component first, then small pieces and isolated vertices.
		"giant-then-pieces": disjointUnion(giant, path(5), cycle(7), NewBuilder(3).Build(), complete(4)),
		// Isolated vertex 0 ahead of a giant: IsConnected starts there.
		"isolated-source": disjointUnion(NewBuilder(1).Build(), giant),
		// Two dense halves that the search from either cannot cross.
		"two-giants": disjointUnion(gnp(300, 0.05, rng), gnp(400, 0.04, rng)),
		// Word boundaries of the bitsets.
		"boundary-63":  disjointUnion(complete(62), NewBuilder(1).Build()),
		"boundary-64":  disjointUnion(gnp(63, 0.2, rng), NewBuilder(1).Build()),
		"boundary-65":  disjointUnion(NewBuilder(1).Build(), complete(64)),
		"boundary-129": disjointUnion(gnp(64, 0.3, rng), gnp(65, 0.3, rng)),
	}
	for name, g := range cases {
		checkTraversal(t, name, g, someSources(g.N()))
		// Every isolated vertex is its own source too.
		for v := int32(0); int(v) < g.N(); v++ {
			if g.Degree(v) == 0 {
				checkTraversal(t, name+"/isolated", g, []int32{v})
			}
		}
	}
}

// workBound is the kernel's worst-case work on n vertices and m edges:
// building U and the frontier bitset marks cost at most 3n, top-down
// levels examine at most 2m arcs, and the switch rule caps every
// bottom-up level at α times its frontier's vertices plus arcs, so
// α(n + 2m) over all levels.
func workBound(n, m int) int {
	return (bottomUpRatio+3)*n + 2*m
}

// descendingPath returns the path n-1, n-2, ..., 0, searched from n-1.
func descendingPath(n int) *Graph {
	b := NewBuilder(n)
	for v := n - 1; v > 0; v-- {
		b.AddEdge(int32(v), int32(v-1))
	}
	return b.Build()
}

// star returns the star with centre 0 and n-1 leaves.
func star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Build()
}

// lollipop returns a k-clique on 0..k-1 with a tail of length tail
// hanging from vertex k-1.
func lollipop(k, tail int) *Graph {
	b := NewBuilder(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	for v := k; v < k+tail; v++ {
		b.AddEdge(int32(v-1), int32(v))
	}
	return b.Build()
}

// Every shape the kernel might mishandle must cost O(n + m): the bound
// fails for any variant that sweeps all n vertices on every level, which
// costs about n²/2 on the paths below.
func TestTraversalWorkIsLinear(t *testing.T) {
	rng := xrand.New(25)
	const n = 4000
	giant := gnp(n, 20.0/n, rng)
	// From source 1999 the search walks a 2000-vertex path down to 0,
	// whose edge to 2000 is the only way into the giant.
	tailed := disjointUnion(descendingPath(2000), giant)
	b := NewBuilder(tailed.N())
	tailed.Edges(func(u, v int32) bool { b.AddEdge(u, v); return true })
	b.AddEdge(0, 2000)
	tailed = b.Build()
	cases := []struct {
		name string
		g    *Graph
		src  int32
	}{
		{"descending-path", descendingPath(n), n - 1},
		{"cycle", cycle(n), 0},
		{"star-centre", star(n), 0},
		{"star-leaf", star(n), n - 1},
		{"lollipop-clique", lollipop(60, n), 0},
		{"lollipop-tail-end", lollipop(60, n), 60 + n - 1},
		{"giant-separated", disjointUnion(path(50), giant), 0},
		{"giant-behind-path", tailed, 1999},
		{"gnp", giant, 0},
	}
	for _, c := range cases {
		reached, work := new(Traversal).traverse(c.g, c.src, nil)
		want := 0
		for _, d := range refDistances(c.g, c.src) {
			if d != Unreachable {
				want++
			}
		}
		if reached != want {
			t.Fatalf("%s: reached %d, reference %d", c.name, reached, want)
		}
		if bound := workBound(c.g.N(), c.g.M()); work > bound {
			t.Errorf("%s: work %d exceeds the linear bound %d (n=%d, m=%d)", c.name, work, bound, c.g.N(), c.g.M())
		}
	}
}

// On G(n, 25/n) the bottom-up levels must do their job: a top-down-only
// search examines all 2m arcs, the kernel well under m.
func TestTraversalGoesBottomUpOnGnp(t *testing.T) {
	g := gnp(20000, 25.0/20000, xrand.New(26))
	_, work := new(Traversal).traverse(g, 0, nil)
	if work >= g.M() {
		t.Fatalf("work %d on %v, want under m = %d", work, g, g.M())
	}
}

// FuzzTraversal decodes bytes into a graph on at most 200 vertices and
// compares Distances from every source and IsConnected against the
// references.
func FuzzTraversal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{64, 0, 63, 63, 1, 1, 62})
	f.Add([]byte{200, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 199, 198})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 201
		b := NewBuilder(n)
		if n > 0 {
			// Edges are byte pairs, each byte scaled into [0, n) so
			// that every byte value names a vertex.
			for i := 1; i+1 < len(data); i += 2 {
				b.AddEdge(int32(int(data[i])*n/256), int32(int(data[i+1])*n/256))
			}
		}
		g := b.Build()
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		checkTraversal(t, "fuzz", g, all)
		for _, s := range all {
			if _, work := new(Traversal).traverse(g, s, nil); work > workBound(g.N(), g.M()) {
				t.Fatalf("source %d: work %d exceeds bound %d", s, work, workBound(g.N(), g.M()))
			}
		}
	})
}

// connectedGnp samples G(n, d/n) until it is connected.
func connectedGnp(n int, d float64, seed uint64) *Graph {
	rng := xrand.New(seed)
	for {
		if g := gnp(n, d/float64(n), rng); refIsConnected(g) {
			return g
		}
	}
}

// Sinks keep the benchmarked calls from being optimized away.
var (
	connectedSink bool
	distSink      []int32
)

func benchTraversal(b *testing.B, fn func(*Graph, int32)) {
	const n = 100000
	cases := []struct {
		name string
		g    *Graph
		src  int32
	}{
		{"gnp-1e5-d25", connectedGnp(n, 25, 1), 0},
		// Distances walks it from n-1 down; IsConnected starts at vertex 0.
		{"descending-path-1e5", descendingPath(n), n - 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(c.g, c.src)
			}
		})
	}
}

func BenchmarkIsConnected(b *testing.B) {
	benchTraversal(b, func(g *Graph, _ int32) { connectedSink = IsConnected(g) })
}

func BenchmarkDistances(b *testing.B) {
	benchTraversal(b, func(g *Graph, src int32) { distSink = Distances(g, src) })
}

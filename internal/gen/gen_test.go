package gen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestGnpEdgeCount(t *testing.T) {
	rng := xrand.New(1)
	const n = 2000
	const p = 0.01
	total := float64(n*(n-1)) / 2
	want := total * p
	sd := math.Sqrt(total * p * (1 - p))
	sum := 0.0
	const trials = 10
	for i := 0; i < trials; i++ {
		g := Gnp(n, p, rng)
		sum += float64(g.M())
	}
	mean := sum / trials
	if math.Abs(mean-want) > 4*sd/math.Sqrt(trials) {
		t.Fatalf("Gnp mean edges %v, want ~%v (sd %v)", mean, want, sd)
	}
}

func TestGnpExtremes(t *testing.T) {
	rng := xrand.New(2)
	if g := Gnp(100, 0, rng); g.M() != 0 {
		t.Fatalf("Gnp p=0 has %d edges", g.M())
	}
	if g := Gnp(50, 1, rng); g.M() != 50*49/2 {
		t.Fatalf("Gnp p=1 has %d edges, want %d", g.M(), 50*49/2)
	}
	if g := Gnp(0, 0.5, rng); g.N() != 0 {
		t.Fatal("Gnp n=0 malformed")
	}
	if g := Gnp(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("Gnp n=1 malformed")
	}
}

func TestGnpSimple(t *testing.T) {
	rng := xrand.New(3)
	g := Gnp(300, 0.05, rng)
	for v := int32(0); int(v) < g.N(); v++ {
		nb := g.Neighbors(v)
		for i, w := range nb {
			if w == v {
				t.Fatalf("self-loop at %d", v)
			}
			if i > 0 && nb[i-1] == w {
				t.Fatalf("parallel edge at %d-%d", v, w)
			}
		}
	}
}

func TestGnpDegreeConcentration(t *testing.T) {
	// For d = pn well above ln n, degrees should concentrate near d
	// (the alpha*pn <= d <= beta*pn assumption of §2).
	rng := xrand.New(4)
	const n = 5000
	d := 4 * math.Log(n)
	g := Gnp(n, PForDegree(n, d), rng)
	st := g.Degrees()
	if st.Mean < 0.8*d || st.Mean > 1.2*d {
		t.Fatalf("mean degree %v far from %v", st.Mean, d)
	}
	if float64(st.Min) < 0.2*d {
		t.Fatalf("min degree %d too small for d=%v", st.Min, d)
	}
	if float64(st.Max) > 3*d {
		t.Fatalf("max degree %d too large for d=%v", st.Max, d)
	}
}

func TestGnpConnectedAboveThreshold(t *testing.T) {
	rng := xrand.New(5)
	const n = 2000
	p := 3 * math.Log(n) / n
	for trial := 0; trial < 5; trial++ {
		g := Gnp(n, p, rng)
		if !graph.IsConnected(g) {
			t.Fatalf("trial %d: G(n, 3 ln n / n) disconnected", trial)
		}
	}
}

func TestGnpDeterministicPerSeed(t *testing.T) {
	g1 := Gnp(500, 0.02, xrand.New(99))
	g2 := Gnp(500, 0.02, xrand.New(99))
	if g1.M() != g2.M() {
		t.Fatal("same seed produced different graphs")
	}
	for v := int32(0); int(v) < g1.N(); v++ {
		n1, n2 := g1.Neighbors(v), g2.Neighbors(v)
		if len(n1) != len(n2) {
			t.Fatalf("vertex %d: adjacency mismatch", v)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("vertex %d: adjacency mismatch", v)
			}
		}
	}
}

func TestGnmExactEdges(t *testing.T) {
	rng := xrand.New(6)
	for _, tc := range []struct{ n, m int }{
		{10, 0}, {10, 45}, {100, 50}, {1000, 5000},
	} {
		g := Gnm(tc.n, tc.m, rng)
		if g.M() != tc.m {
			t.Fatalf("Gnm(%d,%d) has %d edges", tc.n, tc.m, g.M())
		}
		if g.N() != tc.n {
			t.Fatalf("Gnm(%d,%d) has %d vertices", tc.n, tc.m, g.N())
		}
	}
}

func TestGnmPanicsOnTooManyEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gnm with m > C(n,2) did not panic")
		}
	}()
	Gnm(5, 11, xrand.New(1))
}

func TestPairFromIndex(t *testing.T) {
	// Exhaustive check on small n: indices must enumerate all pairs in
	// row-major order exactly once.
	for _, n := range []int{2, 3, 5, 10, 17} {
		k := int64(0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				gu, gv := pairFromIndex(n, k)
				if int(gu) != u || int(gv) != v {
					t.Fatalf("n=%d k=%d: got (%d,%d) want (%d,%d)", n, k, gu, gv, u, v)
				}
				k++
			}
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(7)
	for _, tc := range []struct{ n, d int }{
		{10, 3}, {100, 4}, {50, 6}, {64, 3},
	} {
		g := RandomRegular(tc.n, tc.d, rng)
		st := g.Degrees()
		if st.Max > tc.d {
			t.Fatalf("RandomRegular(%d,%d): max degree %d", tc.n, tc.d, st.Max)
		}
		// Exact regularity holds unless the rare fallback path fired.
		if st.Min != tc.d || st.Max != tc.d {
			t.Logf("RandomRegular(%d,%d) fell back to near-regular: min=%d max=%d",
				tc.n, tc.d, st.Min, st.Max)
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RandomRegular(5, 3, xrand.New(1)) },  // nd odd
		func() { RandomRegular(4, 4, xrand.New(1)) },  // d >= n
		func() { RandomRegular(4, -2, xrand.New(1)) }, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid RandomRegular did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestGeometricMatchesBruteForce(t *testing.T) {
	rng := xrand.New(8)
	const n = 200
	const radius = 0.15
	g, xs, ys := GeometricPoints(n, radius, rng)
	want := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= radius*radius {
				want++
				if !g.HasEdge(int32(i), int32(j)) {
					t.Fatalf("missing edge (%d,%d) at distance %v", i, j, math.Hypot(dx, dy))
				}
			}
		}
	}
	if g.M() != want {
		t.Fatalf("geometric graph has %d edges, brute force says %d", g.M(), want)
	}
}

func TestGeometricZeroRadius(t *testing.T) {
	g := Geometric(50, 0, xrand.New(9))
	if g.M() != 0 {
		t.Fatalf("radius 0 gave %d edges", g.M())
	}
}

func TestHypercube(t *testing.T) {
	for dim := 0; dim <= 6; dim++ {
		g := Hypercube(dim)
		n := 1 << dim
		if g.N() != n {
			t.Fatalf("dim %d: n = %d", dim, g.N())
		}
		if g.M() != n*dim/2 {
			t.Fatalf("dim %d: m = %d, want %d", dim, g.M(), n*dim/2)
		}
		st := g.Degrees()
		if n > 1 && (st.Min != dim || st.Max != dim) {
			t.Fatalf("dim %d: degrees %+v", dim, st)
		}
		if dim >= 1 && graph.Diameter(g) != dim {
			t.Fatalf("dim %d: diameter %d", dim, graph.Diameter(g))
		}
	}
}

func TestDeterministicFamilies(t *testing.T) {
	if g := Path(5); g.M() != 4 || graph.Diameter(g) != 4 {
		t.Fatal("Path(5) malformed")
	}
	if g := Cycle(6); g.M() != 6 || graph.Diameter(g) != 3 {
		t.Fatal("Cycle(6) malformed")
	}
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 {
		t.Fatal("Star(7) malformed")
	}
	if g := Complete(6); g.M() != 15 || graph.Diameter(g) != 1 {
		t.Fatal("Complete(6) malformed")
	}
}

func TestConnectedGnp(t *testing.T) {
	rng := xrand.New(11)
	g, tries, ok := ConnectedGnp(500, 2*math.Log(500)/500, rng, 20)
	if !ok {
		t.Fatal("ConnectedGnp failed above threshold")
	}
	if tries < 1 || tries > 20 {
		t.Fatalf("tries = %d", tries)
	}
	if !graph.IsConnected(g) {
		t.Fatal("returned graph not connected")
	}
	// Far below threshold, failure should be reported (p tiny).
	_, _, ok = ConnectedGnp(500, 0.0001, rng, 3)
	if ok {
		t.Fatal("ConnectedGnp claimed success at p=1e-4 on n=500")
	}
}

func TestPForDegree(t *testing.T) {
	if p := PForDegree(100, 10); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("PForDegree = %v", p)
	}
	if p := PForDegree(10, 100); p != 1 {
		t.Fatalf("PForDegree clamp high = %v", p)
	}
	if p := PForDegree(10, -1); p != 0 {
		t.Fatalf("PForDegree clamp low = %v", p)
	}
	if p := PForDegree(1, 5); p != 0 {
		t.Fatalf("PForDegree n=1 = %v", p)
	}
}

func TestDensifiedComplement(t *testing.T) {
	rng := xrand.New(12)
	const n = 300
	g := DensifiedComplement(n, 0.1, rng)
	density := float64(g.M()) / (float64(n*(n-1)) / 2)
	if math.Abs(density-0.9) > 0.02 {
		t.Fatalf("dense graph density %v, want ~0.9", density)
	}
}

func BenchmarkGnpSparse(b *testing.B) {
	rng := xrand.New(1)
	const n = 100000
	p := PForDegree(n, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gnp(n, p, rng)
	}
}

func BenchmarkGnm(b *testing.B) {
	rng := xrand.New(2)
	for i := 0; i < b.N; i++ {
		_ = Gnm(10000, 100000, rng)
	}
}

func BenchmarkGeometric(b *testing.B) {
	rng := xrand.New(3)
	for i := 0; i < b.N; i++ {
		_ = Geometric(10000, 0.02, rng)
	}
}

func TestConfigurationModelDegrees(t *testing.T) {
	rng := xrand.New(71)
	ds := BimodalSequence(900, 4, 100, 40)
	g := ConfigurationModel(ds, rng)
	if g.N() != 1000 {
		t.Fatalf("n = %d", g.N())
	}
	// Erased model: degrees at most requested, and close for low degrees.
	lowShort, highShort := 0, 0
	for v := 0; v < g.N(); v++ {
		got := g.Degree(int32(v))
		want := ds[v]
		if got > want {
			t.Fatalf("vertex %d degree %d exceeds requested %d", v, got, want)
		}
		if want == 4 && got < 3 {
			lowShort++
		}
		if want >= 40 && got < 36 {
			highShort++
		}
	}
	if lowShort > 50 || highShort > 10 {
		t.Fatalf("erasure too aggressive: %d low, %d high vertices short", lowShort, highShort)
	}
}

func TestConfigurationModelMatchesRegular(t *testing.T) {
	rng := xrand.New(73)
	ds := make([]int, 200)
	for i := range ds {
		ds[i] = 6
	}
	g := ConfigurationModel(ds, rng)
	st := g.Degrees()
	if st.Max > 6 {
		t.Fatalf("max degree %d", st.Max)
	}
	if st.Mean < 5.5 {
		t.Fatalf("mean degree %v too low for requested 6", st.Mean)
	}
}

func TestConfigurationModelPanics(t *testing.T) {
	for _, ds := range [][]int{
		{1, 1, 1}, // odd sum
		{-1, 1},   // negative
		{3, 1, 2}, // degree >= n
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sequence %v accepted", ds)
				}
			}()
			ConfigurationModel(ds, xrand.New(1))
		}()
	}
}

func TestBimodalSequenceEvenSum(t *testing.T) {
	ds := BimodalSequence(3, 3, 0, 0) // sum 9, odd -> padded
	sum := 0
	for _, d := range ds {
		sum += d
	}
	if sum%2 != 0 {
		t.Fatalf("sum %d odd", sum)
	}
}

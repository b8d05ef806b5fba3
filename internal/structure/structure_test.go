package structure

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// bipartiteHalves builds G(n,p), then splits [0,n) into X = [0, n/2) and
// Y = [n/2, n).
func bipartiteHalves(n int, p float64, seed uint64) (*graph.Graph, []int32, []int32) {
	g := gen.Gnp(n, p, xrand.New(seed))
	x := make([]int32, 0, n/2)
	y := make([]int32, 0, n-n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			x = append(x, int32(i))
		} else {
			y = append(y, int32(i))
		}
	}
	return g, x, y
}

func TestEvaluateCoverClassification(t *testing.T) {
	// y0 adjacent to s0 only (covered); y1 adjacent to s0 and s1
	// (collided); y2 adjacent to nothing (missed).
	b := graph.NewBuilder(5)
	// s0 = 0, s1 = 1, y0 = 2, y1 = 3, y2 = 4
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	g := b.Build()
	c := EvaluateCover(g, []int32{0, 1}, []int32{2, 3, 4})
	if len(c.Covered) != 1 || c.Covered[0] != 2 {
		t.Fatalf("Covered = %v", c.Covered)
	}
	if len(c.Collided) != 1 || c.Collided[0] != 3 {
		t.Fatalf("Collided = %v", c.Collided)
	}
	if len(c.Missed) != 1 || c.Missed[0] != 4 {
		t.Fatalf("Missed = %v", c.Missed)
	}
	if f := c.CoveredFraction(); math.Abs(f-1.0/3) > 1e-12 {
		t.Fatalf("CoveredFraction = %v", f)
	}
}

func TestCoveredFractionEmptyY(t *testing.T) {
	g := gen.Path(3)
	c := EvaluateCover(g, []int32{0}, nil)
	if c.CoveredFraction() != 1 {
		t.Fatal("empty Y should be fully covered")
	}
}

func TestRandomizedCoverLemma4(t *testing.T) {
	// Lemma 4 (first statement): with |X| = Θ(n), |Y| = Θ(n) and
	// q = 1/d, a constant fraction of Y gets exactly one neighbour in S.
	const n = 4000
	d := 30.0
	g, x, y := bipartiteHalves(n, gen.PForDegree(n, d), 1)
	rng := xrand.New(2)
	c := RandomizedCover(g, x, y, 1/d, rng)
	if f := c.CoveredFraction(); f < 0.15 {
		t.Fatalf("randomized 1/d cover fraction %v, want a constant fraction", f)
	}
}

func TestRandomizedCoverExtremeQ(t *testing.T) {
	const n = 400
	g, x, y := bipartiteHalves(n, 0.2, 3)
	rng := xrand.New(4)
	// q = 1: everybody transmits; nodes of Y with >= 2 X-neighbours all
	// collide. With p = 0.2 and |X| = 200, essentially everyone collides.
	c := RandomizedCover(g, x, y, 1, rng)
	if f := c.CoveredFraction(); f > 0.1 {
		t.Fatalf("q=1 cover fraction %v, want near 0 (collisions)", f)
	}
	// q = 0: nobody transmits.
	c = RandomizedCover(g, x, y, 0, rng)
	if len(c.Covered) != 0 || len(c.Collided) != 0 {
		t.Fatal("q=0 produced transmissions")
	}
}

func TestGreedyIndependentCoverIsIndependent(t *testing.T) {
	const n = 600
	g, x, y := bipartiteHalves(n, 0.05, 5)
	// Use a small Y so the quadratic greedy is fast.
	y = y[:40]
	c := GreedyIndependentCover(g, x, y)
	// Every covered node must have exactly one neighbour among the
	// transmitters (verified independently of the construction).
	check := EvaluateCover(g, c.Transmitters, y)
	if len(check.Collided) != 0 {
		t.Fatalf("greedy cover produced %d collided nodes", len(check.Collided))
	}
	if len(check.Covered) != len(c.Covered) {
		t.Fatalf("cover self-report mismatch: %d vs %d", len(check.Covered), len(c.Covered))
	}
	// With |X| = 300 candidates of degree ~30 over 40 targets, the greedy
	// should cover most of Y.
	if c.CoveredFraction() < 0.8 {
		t.Fatalf("greedy cover fraction %v too small", c.CoveredFraction())
	}
}

func TestGreedyIndependentCoverNoCandidates(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	c := GreedyIndependentCover(g, []int32{0}, []int32{3})
	if len(c.Covered) != 0 || len(c.Missed) != 1 {
		t.Fatalf("unexpected cover %+v", c)
	}
}

func TestGreedyIndependentMatchingValid(t *testing.T) {
	const n = 2000
	d := 8.0
	g, x, y := bipartiteHalves(n, gen.PForDegree(n, d), 6)
	y = y[:12] // |X|/|Y| well above d² = 64: expect full matching
	m := GreedyIndependentMatching(g, x, y)
	if !m.IsIndependent(g) {
		t.Fatal("matching not independent")
	}
	// Pairs must be disjoint and x-y edges must exist.
	seen := make(map[int32]bool)
	for _, pr := range m.Pairs {
		if seen[pr[0]] || seen[pr[1]] {
			t.Fatal("matching reuses a vertex")
		}
		seen[pr[0]] = true
		seen[pr[1]] = true
		if !g.HasEdge(pr[0], pr[1]) {
			t.Fatalf("matched pair %v not an edge", pr)
		}
	}
	if m.Size() < len(y)-2 {
		t.Fatalf("matching size %d on |Y|=%d with |X|/|Y| >> d²", m.Size(), len(y))
	}
}

func TestMatchingIsIndependentDetectsViolation(t *testing.T) {
	// x0-y0, x1-y1 but also x0-y1: pairs {(x0,y0),(x1,y1)} NOT independent.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2) // x0-y0
	b.AddEdge(1, 3) // x1-y1
	b.AddEdge(0, 3) // x0-y1 violation
	g := b.Build()
	m := &Matching{Pairs: [][2]int32{{0, 2}, {1, 3}}}
	if m.IsIndependent(g) {
		t.Fatal("violation not detected")
	}
	m2 := &Matching{Pairs: [][2]int32{{0, 2}}}
	if !m2.IsIndependent(g) {
		t.Fatal("single pair should be independent")
	}
}

func TestMinimalCoverIsMinimalAndCovers(t *testing.T) {
	const n = 500
	g, x, y := bipartiteHalves(n, 0.08, 7)
	y = y[:60]
	cover := MinimalCover(g, x, y)
	// Which y are coverable at all?
	inX := make(map[int32]bool)
	for _, v := range x {
		inX[v] = true
	}
	coverable := make(map[int32]bool)
	for _, w := range y {
		for _, nb := range g.Neighbors(w) {
			if inX[nb] {
				coverable[w] = true
				break
			}
		}
	}
	// The cover must cover every coverable y.
	covered := make(map[int32]bool)
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			covered[w] = true
		}
	}
	for w := range coverable {
		if !covered[w] {
			t.Fatalf("minimal cover misses coverable %d", w)
		}
	}
	// Minimality: every member has a private y-neighbour.
	inY := make(map[int32]bool)
	for _, w := range y {
		inY[w] = true
	}
	coverDeg := make(map[int32]int)
	for _, v := range cover {
		for _, w := range g.Neighbors(v) {
			if inY[w] {
				coverDeg[w]++
			}
		}
	}
	for _, v := range cover {
		private := false
		for _, w := range g.Neighbors(v) {
			if inY[w] && coverDeg[w] == 1 {
				private = true
				break
			}
		}
		if !private {
			t.Fatalf("cover member %d is redundant — cover not minimal", v)
		}
	}
}

func TestProposition2(t *testing.T) {
	// Proposition 2: from a minimal covering of Y we can extract an
	// independent matching of the same size.
	const n = 800
	g, x, y := bipartiteHalves(n, 0.04, 8)
	y = y[:50]
	cover := MinimalCover(g, x, y)
	m := MatchingFromMinimalCover(g, cover, y)
	if m.Size() != len(cover) {
		t.Fatalf("Proposition 2 violated: matching size %d != cover size %d",
			m.Size(), len(cover))
	}
	// The matching from private neighbours is independent w.r.t. the
	// cover set; verify pair-disjointness and edges.
	seen := make(map[int32]bool)
	for _, pr := range m.Pairs {
		if seen[pr[0]] || seen[pr[1]] {
			t.Fatal("matching reuses vertices")
		}
		seen[pr[0]] = true
		seen[pr[1]] = true
		if !g.HasEdge(pr[0], pr[1]) {
			t.Fatal("non-edge in matching")
		}
	}
}

func TestAnalyzeLayersOnTree(t *testing.T) {
	// Perfect binary tree of depth 3: layers 1,2,4,8; no intra-layer
	// edges, no multi-parents, no shared next-layer neighbours.
	b := graph.NewBuilder(15)
	for i := 1; i < 15; i++ {
		b.AddEdge(int32(i), int32((i-1)/2))
	}
	g := b.Build()
	p := AnalyzeLayers(g, 0)
	wantSizes := []int{1, 2, 4, 8}
	if len(p.Layers) != 4 {
		t.Fatalf("layers = %d", len(p.Layers))
	}
	for i, st := range p.Layers {
		if st.Size != wantSizes[i] {
			t.Fatalf("layer %d size %d, want %d", i, st.Size, wantSizes[i])
		}
		if st.IntraEdges != 0 || st.MultiParent != 0 || st.ShareTwoNext != 0 {
			t.Fatalf("tree layer %d has non-tree stats %+v", i, st)
		}
	}
	if p.Reachable != 15 {
		t.Fatalf("reachable = %d", p.Reachable)
	}
	if p.Depth() != 3 {
		t.Fatalf("depth = %d", p.Depth())
	}
	ratios := p.GrowthRatios()
	for _, r := range ratios {
		if r != 2 {
			t.Fatalf("growth ratios %v, want all 2", ratios)
		}
	}
}

func TestAnalyzeLayersDetectsCycles(t *testing.T) {
	// C4 from vertex 0: layers {0}, {1,3}, {2}; vertex 2 has two parents.
	g := gen.Cycle(4)
	p := AnalyzeLayers(g, 0)
	if len(p.Layers) != 3 {
		t.Fatalf("layers = %d", len(p.Layers))
	}
	if p.Layers[2].MultiParent != 1 {
		t.Fatalf("MultiParent = %d, want 1", p.Layers[2].MultiParent)
	}
	// Layer 1 = {1,3} share the common next-layer neighbour 2.
	if p.Layers[1].ShareOneNext != 2 {
		t.Fatalf("ShareOneNext = %d, want 2", p.Layers[1].ShareOneNext)
	}
}

func TestAnalyzeLayersGnpTreeLike(t *testing.T) {
	// Lemma 3 in the small: on G(n,p) with d = 3 ln n, the early layers
	// should be nearly tree-like — few multi-parents relative to size.
	const n = 3000
	d := 3 * math.Log(n)
	rng := xrand.New(9)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 20)
	if !ok {
		t.Skip("no connected sample")
	}
	p := AnalyzeLayers(g, 0)
	// Layer 1 has ~d nodes; multi-parent impossible (only one parent
	// exists). Layer 2 has ~d² nodes; expected multi-parents ≈ |T2|·d²/n.
	if len(p.Layers) < 3 {
		t.Fatalf("graph too shallow: %d layers", len(p.Layers))
	}
	l2 := p.Layers[2]
	frac := float64(l2.MultiParent) / float64(l2.Size)
	bound := 10 * d * d / float64(n) // generous constant
	if frac > bound {
		t.Fatalf("layer-2 multi-parent fraction %v exceeds %v", frac, bound)
	}
}

func TestBigLayerCountConstant(t *testing.T) {
	const n = 3000
	d := 20.0
	rng := xrand.New(10)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 20)
	if !ok {
		t.Skip("no connected sample")
	}
	p := AnalyzeLayers(g, 0)
	if big := p.BigLayerCount(n, d); big > 6 {
		t.Fatalf("%d layers of size >= n/d³; Lemma 3 says O(1)", big)
	}
}

func TestGrowthRatiosEmptyAndNaN(t *testing.T) {
	p := &LayerProfile{Layers: []LayerStat{{Size: 1}}}
	if got := p.GrowthRatios(); got != nil {
		t.Fatalf("single layer ratios = %v", got)
	}
	p = &LayerProfile{Layers: []LayerStat{{Size: 0}, {Size: 3}}}
	r := p.GrowthRatios()
	if len(r) != 1 || !math.IsNaN(r[0]) {
		t.Fatalf("zero-size layer ratio = %v", r)
	}
}

func BenchmarkRandomizedCover(b *testing.B) {
	const n = 10000
	d := 20.0
	g, x, y := bipartiteHalves(n, gen.PForDegree(n, d), 1)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RandomizedCover(g, x, y, 1/d, rng)
	}
}

func BenchmarkAnalyzeLayers(b *testing.B) {
	const n = 5000
	g := gen.Gnp(n, gen.PForDegree(n, 15), xrand.New(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AnalyzeLayers(g, 0)
	}
}

// mapGreedyIndependentCover is the original map-based greedy, kept as the
// reference the map-free GreedyIndependentCover must reproduce exactly.
func mapGreedyIndependentCover(g *graph.Graph, x, y []int32) []int32 {
	inY := make(map[int32]int, len(y))
	for _, w := range y {
		inY[w] = 0
	}
	var accepted []int32
	acceptedSet := make(map[int32]bool)
	remaining := make(map[int32]bool, len(y))
	for _, w := range y {
		remaining[w] = true
	}
	for len(remaining) > 0 {
		var best int32 = -1
		bestGain := 0
		for _, cand := range x {
			if acceptedSet[cand] {
				continue
			}
			gain := 0
			ok := true
			for _, w := range g.Neighbors(cand) {
				cnt, isY := inY[w]
				if !isY {
					continue
				}
				if cnt >= 1 {
					ok = false
					break
				}
				if remaining[w] {
					gain++
				}
			}
			if ok && gain > bestGain {
				best, bestGain = cand, gain
			}
		}
		if best < 0 {
			break
		}
		accepted = append(accepted, best)
		acceptedSet[best] = true
		for _, w := range g.Neighbors(best) {
			if _, isY := inY[w]; isY {
				inY[w]++
				delete(remaining, w)
			}
		}
	}
	return accepted
}

// TestGreedyIndependentCoverMatchesMapReference compares the transmitter
// list, and the cover classification, with the map-based reference on
// random graphs and random (overlapping, duplicated, unsorted) X and Y.
func TestGreedyIndependentCoverMatchesMapReference(t *testing.T) {
	rng := xrand.New(12)
	for trial := 0; trial < 300; trial++ {
		n := 20 + rng.Intn(300)
		g := gen.Gnp(n, (2+8*rng.Float64())/float64(n), rng)
		pick := func(k int) []int32 {
			s := make([]int32, k)
			for i := range s {
				s[i] = int32(rng.Intn(n))
			}
			return s
		}
		x, y := pick(rng.Intn(2*n/3+1)), pick(1+rng.Intn(70))
		got := GreedyIndependentCover(g, x, y)
		want := mapGreedyIndependentCover(g, x, y)
		if !slices.Equal(got.Transmitters, want) {
			t.Fatalf("trial %d: transmitters %v, reference %v", trial, got.Transmitters, want)
		}
		ref := EvaluateCover(g, want, y)
		if !slices.Equal(got.Covered, ref.Covered) || !slices.Equal(got.Collided, ref.Collided) || !slices.Equal(got.Missed, ref.Missed) {
			t.Fatalf("trial %d: classification differs from the reference", trial)
		}
	}
}

// TestEvaluateCoverDuplicates checks that repeated transmitters count
// once, as they did with the set-based membership test.
func TestEvaluateCoverDuplicates(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	c := EvaluateCover(g, []int32{0, 0, 0}, []int32{2, 3})
	if !slices.Equal(c.Covered, []int32{2, 3}) || len(c.Collided) != 0 {
		t.Fatalf("covered %v collided %v, want [2 3] and none", c.Covered, c.Collided)
	}
}

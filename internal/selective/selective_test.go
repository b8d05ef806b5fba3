package selective

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/xrand"
)

func TestFamilyBasics(t *testing.T) {
	f := NewFamily(5, [][]int32{{3, 1}, {2}, {}})
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	if !f.Contains(0, 1) || !f.Contains(0, 3) || f.Contains(0, 2) {
		t.Fatal("Contains wrong on set 0")
	}
	if f.Contains(2, 0) {
		t.Fatal("empty set contains something")
	}
}

func TestSelectsSubset(t *testing.T) {
	f := NewFamily(6, [][]int32{{0, 1, 2}, {3}, {4, 5}})
	// {1}: selected by set 0 (single intersection).
	if ok, i := f.SelectsSubset([]int32{1}); !ok || i != 0 {
		t.Fatalf("singleton not selected: ok=%v i=%d", ok, i)
	}
	// {0,1}: set 0 intersects twice, sets 1,2 not at all -> not selected.
	if ok, _ := f.SelectsSubset([]int32{0, 1}); ok {
		t.Fatal("{0,1} wrongly selected")
	}
	// {0,3}: set 0 = {0,1,2} intersects exactly once (at 0).
	if ok, i := f.SelectsSubset([]int32{0, 3}); !ok || i != 0 {
		t.Fatalf("{0,3}: ok=%v i=%d", ok, i)
	}
	// {0,1,4,5}: set 0 hits twice, set 2 hits twice, set 1 misses.
	if ok, _ := f.SelectsSubset([]int32{0, 1, 4, 5}); ok {
		t.Fatal("{0,1,4,5} wrongly selected")
	}
}

func TestRandomFamilySelectsSingletons(t *testing.T) {
	f := Random(100, 8, 4, xrand.New(1))
	for v := int32(0); v < 100; v++ {
		if ok, _ := f.SelectsSubset([]int32{v}); !ok {
			t.Fatalf("singleton {%d} not selected", v)
		}
	}
}

func TestRandomFamilySelectsRandomSubsets(t *testing.T) {
	// Empirical selectivity check: random subsets of size <= k must be
	// selected with overwhelming frequency when reps = Θ(log n).
	const n = 200
	const k = 16
	rng := xrand.New(2)
	reps := 2 * int(math.Ceil(math.Log2(n)))
	f := Random(n, k, reps, rng)
	failures := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		size := 1 + rng.Intn(k)
		s := rng.Sample(n, size)
		if ok, _ := f.SelectsSubset(s); !ok {
			failures++
		}
	}
	if failures > trials/100 {
		t.Fatalf("%d/%d random subsets unselected", failures, trials)
	}
}

func TestRandomFamilySizeScales(t *testing.T) {
	f := Random(1000, 32, 5, xrand.New(3))
	// Scales: 1, 2, 4, ..., 64 -> 1 + 6*reps sets.
	want := 1 + 6*5
	if f.Len() != want {
		t.Fatalf("family size %d, want %d", f.Len(), want)
	}
}

func TestRandomFamilyClamps(t *testing.T) {
	f := Random(10, 0, 0, xrand.New(4))
	if f.Len() < 1 {
		t.Fatal("degenerate family empty")
	}
	f = Random(10, 100, 1, xrand.New(5))
	if f.Len() < 1 {
		t.Fatal("k > n family empty")
	}
}

func TestProtocolBroadcastsOnGnp(t *testing.T) {
	const n = 300
	d := 2 * math.Log(n)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(6), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	reps := int(math.Ceil(math.Log2(n)))
	// k should exceed the max degree for full worst-case coverage; for
	// G(n,p) k ≈ 4d suffices in practice.
	f := Random(n, int(4*d), reps, xrand.New(7))
	p := &Protocol{F: f}
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: 200 * f.Len()}, xrand.New(8))
	if !res.Completed {
		t.Fatalf("selective-family broadcast incomplete: %d/%d", res.Informed, n)
	}
}

func TestProtocolDeterministic(t *testing.T) {
	f := Random(50, 8, 3, xrand.New(9))
	p := &Protocol{F: f}
	rng := xrand.New(10)
	for round := 1; round <= 2*f.Len(); round++ {
		for v := int32(0); v < 50; v++ {
			a := p.Transmit(v, round, 0, rng)
			b := p.Transmit(v, round, 0, rng)
			if a != b {
				t.Fatal("protocol is not deterministic")
			}
			// Periodicity.
			c := p.Transmit(v, round+f.Len(), 0, rng)
			if a != c {
				t.Fatal("protocol is not periodic in the family length")
			}
		}
	}
}

func TestProtocolEmptyFamily(t *testing.T) {
	p := &Protocol{F: NewFamily(5, nil)}
	if p.Transmit(0, 1, 0, xrand.New(1)) {
		t.Fatal("empty family transmitted")
	}
}

func BenchmarkSelectsSubset(b *testing.B) {
	rng := xrand.New(1)
	f := Random(1000, 32, 10, rng)
	s := rng.Sample(1000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SelectsSubset(s)
	}
}

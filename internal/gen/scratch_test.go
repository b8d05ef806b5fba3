package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// sameEdges reports whether a and b have the same vertex count and the
// same adjacency list at every vertex.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// TestScratchMatchesConnectedGnp draws through one Scratch and through the
// fresh ConnectedGnp from twin streams, over an n sequence that grows,
// shrinks and grows again, at degrees where most draws are connected and
// where most are not. Each draw must give the same graph edge for edge in
// the same number of tries, and leave both streams at the same state.
func TestScratchMatchesConnectedGnp(t *testing.T) {
	var s Scratch
	fresh, reused := xrand.New(11), xrand.New(11)
	retried := false
	for _, n := range []int{400, 3000, 150, 2000, 5000} {
		for _, d := range []float64{12, 5} {
			p := PForDegree(n, d)
			want, wantTries, wantOK := ConnectedGnp(n, p, fresh, 20)
			got, tries, ok := s.ConnectedGnp(n, p, reused, 20)
			if tries != wantTries || ok != wantOK {
				t.Fatalf("n=%d d=%v: scratch took %d tries (ok=%v), fresh %d (ok=%v)", n, d, tries, ok, wantTries, wantOK)
			}
			if !sameEdges(got, want) {
				t.Fatalf("n=%d d=%v: scratch graph differs from the fresh one", n, d)
			}
			if a, b := fresh.Uint64(), reused.Uint64(); a != b {
				t.Fatalf("n=%d d=%v: streams diverged after the draw", n, d)
			}
			retried = retried || tries > 1
		}
	}
	if !retried {
		t.Fatal("no draw retried; the sequence must exercise ConnectedGnp's retry loop")
	}
}

// TestScratchGnpExtremes covers the draws that never reach the skip
// sampler: no pairs, p = 0 and p = 1, into a scratch that held a larger
// graph before each.
func TestScratchGnpExtremes(t *testing.T) {
	var s Scratch
	for _, c := range []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.5}, {300, 0}, {60, 1}, {0, 0.5}} {
		s.Gnp(500, 0.05, xrand.New(1))
		want := Gnp(c.n, c.p, xrand.New(2))
		if got := s.Gnp(c.n, c.p, xrand.New(2)); !sameEdges(got, want) {
			t.Fatalf("Gnp(%d, %v) into a used scratch differs from a fresh draw", c.n, c.p)
		}
	}
}

// TestScratchSteadyStateAllocs requires a draw into a scratch that has
// already held a graph of the same size to allocate nothing.
func TestScratchSteadyStateAllocs(t *testing.T) {
	var s Scratch
	rng := xrand.New(4)
	const n = 5000
	p := PForDegree(n, 20)
	s.ConnectedGnp(n, p, rng, 10)
	s.ConnectedGnp(n, p, rng, 10)
	if allocs := testing.AllocsPerRun(5, func() { s.ConnectedGnp(n, p, rng, 10) }); allocs != 0 {
		t.Fatalf("ConnectedGnp into a warm scratch allocates %.1f objects, want 0", allocs)
	}
}

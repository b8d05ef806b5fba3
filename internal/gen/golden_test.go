package gen

// Golden fingerprints of the G(n,p) sampler's output. The values were
// recorded with the original skip sampler, floor(Log1p(-u)/log(1-p)) on
// every draw, before the table-driven fast logarithm and the pooled
// builder edge buffers landed; both are meant to leave every sampled
// graph bit-identical, and these tests hold them to it.

import (
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// csrFingerprint folds a graph's full CSR (vertex count, then every
// adjacency list with its length) into an FNV-64a hash.
func csrFingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x int32) {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:])
	}
	put(int32(g.N()))
	for v := int32(0); int(v) < g.N(); v++ {
		nb := g.Neighbors(v)
		put(int32(len(nb)))
		for _, w := range nb {
			put(w)
		}
	}
	return h.Sum64()
}

func TestConnectedGnpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("samples two G(1e5, 25/n) graphs")
	}
	const n = 100_000
	for _, tc := range []struct {
		seed  uint64
		tries int
		want  uint64
	}{
		{1, 1, 3941459718555309816},
		{2, 1, 15460739177289900661},
	} {
		g, tries, ok := ConnectedGnp(n, 25.0/n, xrand.New(tc.seed), 10)
		if !ok || tries != tc.tries {
			t.Fatalf("seed %d: ok=%v tries=%d, want ok after %d", tc.seed, ok, tries, tc.tries)
		}
		if got := csrFingerprint(g); got != tc.want {
			t.Errorf("seed %d: CSR fingerprint %d, want %d (m=%d)", tc.seed, got, tc.want, g.M())
		}
	}
}

// TestGnpGridGolden pins one fingerprint over a grid of small graphs
// that covers the edge cases of the sampler: n < 2, p at 0 and 1, dense
// and sparse p, and rows that end exactly on a skip.
func TestGnpGridGolden(t *testing.T) {
	const want uint64 = 10492511886093217543
	h := fnv.New64a()
	var b [8]byte
	seed := uint64(0)
	for _, n := range []int{0, 1, 2, 3, 5, 17, 64, 200, 1000} {
		for _, p := range []float64{0, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.77, 0.9, 0.999, 1} {
			seed++
			x := csrFingerprint(Gnp(n, p, xrand.New(seed)))
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("Gnp grid fingerprint %d, want %d", got, want)
	}
}

// TestSBMGolden pins the stochastic block model, whose cross-block pairs
// go through the same geometric skips.
func TestSBMGolden(t *testing.T) {
	const want uint64 = 13890324117216616076
	g := SBM([]int{300, 500, 200}, 0.05, 0.004, xrand.New(77))
	if got := csrFingerprint(g); got != want {
		t.Errorf("SBM fingerprint %d, want %d", got, want)
	}
}

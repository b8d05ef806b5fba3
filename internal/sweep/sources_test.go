package sweep

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// selective floods two rounds, then transmits with probability 1/d.
func selective(d float64) radio.Protocol {
	return radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
}

func TestSources(t *testing.T) {
	const n = 500
	d := 2 * math.Log(n)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(2), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := selective(d)
	rng := xrand.New(3)
	times := Sources(g, 10, p, 5000, rng)
	if len(times) != 10 {
		t.Fatalf("sweep returned %d times", len(times))
	}
	for _, tt := range times {
		if tt <= 0 || tt > 5000 {
			t.Fatalf("completion time %d out of range", tt)
		}
	}
	// k is clamped to [0, n].
	if times := Sources(gen.Complete(5), 100, p, 100, rng); len(times) != 5 {
		t.Fatalf("clamped sweep returned %d", len(times))
	}
	for _, k := range []int{0, -1, -100} {
		if times := Sources(gen.Complete(5), k, p, 100, rng); len(times) != 0 {
			t.Fatalf("k=%d: sweep returned %d times, want none", k, len(times))
		}
	}
}

func TestSourcesDeterministic(t *testing.T) {
	g := gen.Complete(20)
	p := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		return r.Bernoulli(0.2)
	})
	a := Sources(g, 5, p, 500, xrand.New(7))
	b := Sources(g, 5, p, 500, xrand.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sweep not deterministic")
		}
	}
}

// TestSourcesStreams pins the sweep's randomness: sources come from
// rng.Sample(n, k) and source i's run from rng.Derive(i+1), bit-identical
// to a fresh engine per source, while the sweep builds one engine.
func TestSourcesStreams(t *testing.T) {
	const n = 300
	d := 8.0
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(4), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := selective(d)
	before := exec.Snapshot()
	got := Sources(g, 6, p, 400, xrand.New(9))
	if misses := exec.Snapshot().Scalar.PoolMisses - before.Scalar.PoolMisses; misses != 1 {
		t.Errorf("sweep built %d engines, want one re-aimed at every source", misses)
	}
	rng := xrand.New(9)
	for i, s := range rng.Sample(n, 6) {
		e := radio.NewEngine(g, s, radio.StrictInformed)
		want, _ := radio.BroadcastTimeOnContext(context.Background(), e, p, 400, rng.Derive(uint64(i)+1))
		if got[i] != want {
			t.Fatalf("source %d (node %d): sweep %d, fresh engine %d", i, s, got[i], want)
		}
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Property sweep: across random (n, d, source, seed) configurations, the
// centralized schedule must (a) build without error on connected inputs,
// (b) replay to completion under the strict policy, (c) respect the
// eccentricity lower bound, and (d) stay within a generous constant of
// the Theorem 5 bound.
func TestCentralizedSchedulePropertySweep(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 15; trial++ {
		n := 200 + rng.Intn(1800)
		lnN := math.Log(float64(n))
		d := (1.5 + 4*rng.Float64()) * lnN
		g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 50)
		if !ok {
			continue
		}
		src := rng.Int31n(int32(n))
		seed := rng.Uint64()
		sched, trace, err := BuildCentralizedSchedule(g, src, d, DefaultCentralizedConfig(seed))
		if err != nil {
			t.Fatalf("trial %d (n=%d d=%.1f src=%d): %v", trial, n, d, src, err)
		}
		res, err := replay(g, src, sched)
		if err != nil {
			t.Fatalf("trial %d: replay error: %v", trial, err)
		}
		if !res.Completed {
			t.Fatalf("trial %d: incomplete %d/%d (%s)", trial, res.Informed, n, trace)
		}
		ecc := graph.Eccentricity(g, src)
		if res.Rounds < ecc {
			t.Fatalf("trial %d: %d rounds below eccentricity %d", trial, res.Rounds, ecc)
		}
		if bound := CentralizedBound(n, d); float64(sched.Len()) > 20*bound {
			t.Fatalf("trial %d: schedule %d rounds vs bound %.1f", trial, sched.Len(), bound)
		}
		if trace.Total() != sched.Len() {
			t.Fatalf("trial %d: trace/sched mismatch", trial)
		}
	}
}

// Property sweep for the distributed protocol: completion within the
// budget across random configurations, and informedAt ≥ BFS distance.
func TestDistributedProtocolPropertySweep(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 12; trial++ {
		n := 300 + rng.Intn(1700)
		lnN := math.Log(float64(n))
		d := (2 + 3*rng.Float64()) * lnN
		g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 50)
		if !ok {
			continue
		}
		src := rng.Int31n(int32(n))
		res := runProtocol(g, src, NewDistributedProtocol(n, d), MaxRoundsFor(n), rng)
		if !res.Completed {
			t.Fatalf("trial %d (n=%d d=%.1f): incomplete %d/%d", trial, n, d, res.Informed, n)
		}
		dist := graph.Distances(g, src)
		for v, at := range res.InformedAt {
			if at < dist[v] {
				t.Fatalf("trial %d: node %d informed at %d before distance %d", trial, v, at, dist[v])
			}
		}
	}
}

// The schedule sets of the selective phase must be pairwise disjoint when
// the config demands it — verified against the actual schedule output.
func TestSelectivePhaseDisjointnessProperty(t *testing.T) {
	const n = 3000
	d := 2 * math.Log(n)
	g := mustConnected(t, n, d, 555)
	cfg := DefaultCentralizedConfig(555)
	sched, trace, err := BuildCentralizedSchedule(g, 0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo := trace.TreeRounds + trace.KickoffRounds
	hi := lo + trace.SelectiveRounds
	seen := make(map[int32]int)
	for r := lo; r < hi; r++ {
		for _, v := range sched.Sets[r] {
			if prev, dup := seen[v]; dup {
				t.Fatalf("node %d in selective rounds %d and %d", v, prev, r)
			}
			seen[v] = r
		}
	}
}

// Seeds must fully determine distributed runs end to end.
func TestDistributedRunDeterministicProperty(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := mustConnected(t, n, d, 888)
	a := runProtocol(g, 0, NewDistributedProtocol(n, d), MaxRoundsFor(n), xrand.New(31))
	b := runProtocol(g, 0, NewDistributedProtocol(n, d), MaxRoundsFor(n), xrand.New(31))
	if a.Rounds != b.Rounds || a.Informed != b.Informed {
		t.Fatal("same seed, different outcome")
	}
	for i := range a.InformedAt {
		if a.InformedAt[i] != b.InformedAt[i] {
			t.Fatal("same seed, different informedAt")
		}
	}
}

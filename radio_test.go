package repro

import (
	"math"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	rng := NewRand(1)
	const n = 2000
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Fatal("no connected sample")
	}
	if g.N() != n {
		t.Fatalf("n = %d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("claimed connected but is not")
	}

	// Distributed protocol.
	res, _ := Run(g, 0, WithDegree(d), WithRand(rng))
	if !res.Completed {
		t.Fatalf("distributed incomplete: %d/%d", res.Informed, n)
	}
	if float64(res.Rounds) > 30*DistributedBound(n) {
		t.Fatalf("distributed took %d rounds", res.Rounds)
	}

	// Centralized schedule.
	sched, err := BuildSchedule(g, 0, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := Run(g, 0, WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Completed {
		t.Fatal("centralized incomplete")
	}
	if float64(cres.Rounds) > 15*CentralizedBound(n, d) {
		t.Fatalf("centralized took %d rounds vs bound %v", cres.Rounds, CentralizedBound(n, d))
	}
	if cres.Rounds < Eccentricity(g, 0) {
		t.Fatal("finished below the eccentricity lower bound?!")
	}
}

func TestFacadeCustomProtocol(t *testing.T) {
	rng := NewRand(2)
	g := GnpDegree(500, 15, rng)
	p := ProtocolFunc(func(v int32, round int, informedAt int32, r *Rand) bool {
		return r.Bernoulli(1.0 / 15)
	})
	res, _ := Run(g, 0, WithProtocol(p), WithMaxRounds(5000), WithRand(rng))
	if res.Informed < 2 {
		t.Fatal("custom protocol informed nobody")
	}
	// BroadcastTime sentinel behaviour.
	never := ProtocolFunc(func(v int32, round int, informedAt int32, r *Rand) bool { return false })
	if got := BroadcastTime(g, 0, never, 5, rng); got != 6 {
		t.Fatalf("sentinel = %d", got)
	}
}

func TestFacadeBuilderAndEngine(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	e := NewEngine(g, 0)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	if !e.Informed(1) || e.Informed(2) {
		t.Fatal("engine state wrong after round 1")
	}
	if _, err := e.Round([]int32{2}); err == nil {
		t.Fatal("uninformed transmitter accepted by strict engine")
	}
}

func TestFacadeGnm(t *testing.T) {
	g := Gnm(100, 300, NewRand(3))
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("Gnm: n=%d m=%d", g.N(), g.M())
	}
}

func TestFacadeBounds(t *testing.T) {
	if CentralizedBound(1000, 10) <= 0 || DistributedBound(1000) <= 0 {
		t.Fatal("bounds nonpositive")
	}
	if MaxRounds(1000) < int(DistributedBound(1000)) {
		t.Fatal("MaxRounds below the bound")
	}
}

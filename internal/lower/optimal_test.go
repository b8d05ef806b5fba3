package lower

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestOptimalOnPath(t *testing.T) {
	// On a path, information moves one hop per round: OPT = n-1.
	for _, n := range []int{2, 3, 5, 8} {
		g := gen.Path(n)
		opt, err := OptimalBroadcastTime(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt != n-1 {
			t.Fatalf("P%d: OPT = %d, want %d", n, opt, n-1)
		}
	}
}

func TestOptimalOnStarAndComplete(t *testing.T) {
	g := gen.Star(8)
	opt, err := OptimalBroadcastTime(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Fatalf("star from centre: OPT = %d, want 1", opt)
	}
	// From a leaf: leaf -> centre -> everyone = 2 rounds.
	opt, err = OptimalBroadcastTime(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("star from leaf: OPT = %d, want 2", opt)
	}
	// K_n: one round.
	opt, err = OptimalBroadcastTime(gen.Complete(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Fatalf("K10: OPT = %d, want 1", opt)
	}
}

func TestOptimalOnCycle(t *testing.T) {
	// On C_n information spreads both ways but only one neighbour can
	// deliver per round per side; OPT(C6 from 0) = 3 (the eccentricity).
	g := gen.Cycle(6)
	opt, err := OptimalBroadcastTime(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 3 {
		t.Fatalf("C6: OPT = %d, want 3", opt)
	}
}

func TestOptimalCollisionGadget(t *testing.T) {
	// 0-1, 0-2, 1-3, 2-3: round 1 informs {1,2}; transmitting both
	// collides at 3, so one transmits alone in round 2. OPT = 2.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	opt, err := OptimalBroadcastTime(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("gadget: OPT = %d, want 2", opt)
	}
}

func TestOptimalAtLeastEccentricity(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(7) // 6..12
		g, _, ok := gen.ConnectedGnp(n, 0.4, rng, 50)
		if !ok {
			continue
		}
		opt, err := OptimalBroadcastTime(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ecc := graph.Eccentricity(g, 0); opt < ecc {
			t.Fatalf("OPT %d below eccentricity %d", opt, ecc)
		}
	}
}

func TestGreedyWithinOneOfOptimal(t *testing.T) {
	// The claim E14 rests on: the greedy adversary is near-optimal on
	// tiny random graphs.
	rng := xrand.New(2)
	checked := 0
	for trial := 0; trial < 20 && checked < 12; trial++ {
		n := 8 + rng.Intn(5) // 8..12
		g, _, ok := gen.ConnectedGnp(n, 0.35, rng, 50)
		if !ok {
			continue
		}
		checked++
		opt, err := OptimalBroadcastTime(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := GreedyAdaptiveSchedule(g, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("greedy incomplete on tiny graph")
		}
		if res.Rounds < opt {
			t.Fatalf("greedy %d beat the exact optimum %d — impossible", res.Rounds, opt)
		}
		if res.Rounds > opt+2 {
			t.Fatalf("greedy %d rounds vs optimal %d (gap > 2)", res.Rounds, opt)
		}
	}
	if checked < 5 {
		t.Fatal("too few connected samples checked")
	}
}

func TestOptimalMatchesReplay(t *testing.T) {
	// OPT must be achievable: we don't extract the schedule, but the
	// greedy schedule's replayed length upper-bounds OPT and the
	// eccentricity lower-bounds it; check sandwich consistency.
	rng := xrand.New(3)
	g, _, ok := gen.ConnectedGnp(10, 0.5, rng, 50)
	if !ok {
		t.Skip("no sample")
	}
	opt, err := OptimalBroadcastTime(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, res, err := GreedyAdaptiveSchedule(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt > res.Rounds || opt > replay.Rounds || opt < graph.Eccentricity(g, 0) {
		t.Fatalf("sandwich violated: ecc=%d opt=%d greedy=%d", graph.Eccentricity(g, 0), opt, res.Rounds)
	}
}

func TestOptimalErrors(t *testing.T) {
	if _, err := OptimalBroadcastTime(gen.Path(MaxOptimalN+1), 0); err == nil {
		t.Fatal("oversized graph accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := OptimalBroadcastTime(b.Build(), 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := OptimalBroadcastTime(graph.NewBuilder(0).Build(), 0); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestOptimalSingleton(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	opt, err := OptimalBroadcastTime(g, 0)
	if err != nil || opt != 0 {
		t.Fatalf("singleton: %d %v", opt, err)
	}
}

func BenchmarkOptimal12(b *testing.B) {
	rng := xrand.New(1)
	g, _, ok := gen.ConnectedGnp(12, 0.4, rng, 50)
	if !ok {
		b.Skip("no sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalBroadcastTime(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package repro

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/gen"
)

func TestFacadeGossip(t *testing.T) {
	rng := NewRand(1)
	const n = 300
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	res := Gossip(g, d, 100000, rng)
	if !res.Completed {
		t.Fatalf("gossip incomplete: min known %d/%d", res.MinKnown, n)
	}
	if res.KnownTotal != int64(n)*int64(n) {
		t.Fatalf("KnownTotal = %d", res.KnownTotal)
	}
}

func TestFacadeCrashAndBroadcast(t *testing.T) {
	rng := NewRand(2)
	const n = 1000
	d := 4 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	sc := Crash(g, 0, 0.3, rng)
	if sc.SrcNew < 0 {
		t.Fatal("source crashed")
	}
	res, _ := Run(sc.Sub, sc.SrcNew, WithDegree(d*0.7), WithRand(rng))
	if res.Informed < sc.ReachableFromSource() {
		t.Fatalf("informed %d < reachable %d", res.Informed, sc.ReachableFromSource())
	}
}

func TestFacadeBroadcastMulti(t *testing.T) {
	rng := NewRand(3)
	const n = 800
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	res, _ := Run(g, 0, WithSources(int32(n/2), int32(n-1)), WithDegree(d), WithRand(rng))
	if !res.Completed {
		t.Fatalf("multi-source incomplete: %d/%d", res.Informed, n)
	}
}

func TestFacadeSourceSweep(t *testing.T) {
	rng := NewRand(4)
	const n = 500
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	for _, tc := range []struct{ k, want int }{
		{5, 5},
		{n + 10, n}, // clamped to n
		{0, 0},
		{-3, 0}, // clamped to 0, not a panic
	} {
		times := SourceSweep(g, tc.k, d, rng)
		if len(times) != tc.want {
			t.Fatalf("k=%d: %d sweep times, want %d", tc.k, len(times), tc.want)
		}
		for _, tt := range times {
			if tt > MaxRounds(n) {
				t.Fatalf("k=%d: a source failed to complete: %d", tc.k, tt)
			}
		}
	}
}

func TestFacadeScheduleIO(t *testing.T) {
	rng := NewRand(5)
	const n = 400
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	sched, err := BuildSchedule(g, 0, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, sched); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, WithSchedule(got))
	if err != nil || !res.Completed {
		t.Fatalf("round-tripped schedule invalid: %v informed=%d", err, res.Informed)
	}
}

func TestFacadeKBroadcast(t *testing.T) {
	rng := NewRand(6)
	const n = 400
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	res := KBroadcast(g, 0, 4, d, 200000, rng)
	if !res.Completed {
		t.Fatalf("k-broadcast incomplete")
	}
	if res.Delivered != int64(4)*int64(n-1) {
		t.Fatalf("delivered %d", res.Delivered)
	}
}

func TestFacadeElectLeader(t *testing.T) {
	rng := NewRand(7)
	noCD := ElectLeader(500, 1<<20, 1<<20, rng)
	cd := ElectLeaderCD(500, 1<<20, 1<<20, rng)
	if noCD > 1<<20 || cd > 1<<20 {
		t.Fatalf("election failed: %d %d", noCD, cd)
	}
}

func TestFacadeGridSchedule(t *testing.T) {
	rng := NewRand(8)
	// Build a small connected geometric field via the internal generator
	// through the facade-visible types.
	const n = 300
	radius := math.Sqrt(4 * math.Log(n) / (math.Pi * n))
	var g *Graph
	var xs, ys []float64
	for attempt := 0; attempt < 20; attempt++ {
		gg, xxs, yys := gen.GeometricPoints(n, radius, rng)
		if IsConnected(gg) {
			g, xs, ys = gg, xxs, yys
			break
		}
	}
	if g == nil {
		t.Skip("no connected field")
	}
	sched, err := BuildGridSchedule(g, xs, ys, radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, WithSchedule(sched))
	if err != nil || !res.Completed {
		t.Fatalf("grid schedule: %v informed=%d", err, res.Informed)
	}
	if res.Stats.Collisions != 0 {
		t.Fatalf("collisions: %d", res.Stats.Collisions)
	}
}

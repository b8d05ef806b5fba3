package geo

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// field samples a connected random geometric graph with expected degree
// targetDeg, returning the graph, coordinates and radius.
func field(t testing.TB, n int, targetDeg float64, seed uint64) (*graph.Graph, []float64, []float64, float64) {
	t.Helper()
	radius := math.Sqrt(targetDeg / (math.Pi * float64(n)))
	for attempt := uint64(0); attempt < 20; attempt++ {
		rng := xrand.New(seed + attempt)
		g, xs, ys := gen.GeometricPoints(n, radius, rng)
		if graph.IsConnected(g) {
			return g, xs, ys, radius
		}
	}
	t.Skip("no connected geometric sample")
	return nil, nil, nil, 0
}

func TestGridScheduleCompletesCollisionFree(t *testing.T) {
	g, xs, ys, r := field(t, 800, 4*math.Log(800), 1)
	sched, err := BuildGridSchedule(g, xs, ys, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("grid schedule incomplete: %d/%d", res.Informed, g.N())
	}
	if res.Stats.Collisions != 0 {
		t.Fatalf("grid schedule suffered %d collisions — colouring broken", res.Stats.Collisions)
	}
}

func TestGridScheduleEachNodeTransmitsAtMostOnce(t *testing.T) {
	g, xs, ys, r := field(t, 500, 20, 2)
	sched, err := BuildGridSchedule(g, xs, ys, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]int)
	for _, set := range sched.Sets {
		for _, v := range set {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c > 1 {
			t.Fatalf("node %d transmitted %d times", v, c)
		}
	}
	// Energy: total transmissions at most n.
	if len(seen) > g.N() {
		t.Fatalf("transmitters %d > n", len(seen))
	}
}

func TestGridScheduleRespectsEccentricity(t *testing.T) {
	g, xs, ys, r := field(t, 600, 20, 3)
	sched, err := BuildGridSchedule(g, xs, ys, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	ecc := graph.Eccentricity(g, 0)
	if sched.Len() < ecc {
		t.Fatalf("schedule %d rounds below eccentricity %d", sched.Len(), ecc)
	}
	// Linear-in-D with a geometry constant: assert a generous cap.
	if sched.Len() > 500*ecc {
		t.Fatalf("schedule %d rounds vs eccentricity %d — constant blew up", sched.Len(), ecc)
	}
}

func TestGridScheduleErrors(t *testing.T) {
	g, xs, ys, r := field(t, 100, 20, 4)
	if _, err := BuildGridSchedule(g, xs[:10], ys, r, 0); err == nil {
		t.Fatal("mismatched points accepted")
	}
	if _, err := BuildGridSchedule(g, xs, ys, 0, 0); err == nil {
		t.Fatal("zero radius accepted")
	}
	// Disconnected input.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := BuildGridSchedule(b.Build(), make([]float64, 4), make([]float64, 4), 0.1, 0); err == nil {
		t.Fatal("disconnected accepted")
	}
}

func TestGridScheduleNonUDGEdgesRejected(t *testing.T) {
	// A long-range edge violates the unit-disk assumption; the scheduler
	// either still completes (if no collision materialises) or returns an
	// error — it must not return an invalid schedule.
	b := graph.NewBuilder(4)
	// Points: 0 at (0.05,0.05), 1 at (0.1,0.05), 2 at (0.9,0.9), 3 at (0.95,0.9)
	xs := []float64{0.05, 0.1, 0.9, 0.95}
	ys := []float64{0.05, 0.05, 0.9, 0.9}
	r := 0.1
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(1, 2) // long-range edge, not a UDG edge
	g := b.Build()
	sched, err := BuildGridSchedule(g, xs, ys, r, 0)
	if err != nil {
		return // rejection is acceptable
	}
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil || !res.Completed {
		t.Fatalf("returned schedule invalid: %v informed=%d", err, res.Informed)
	}
}

func TestGridScheduleSingleton(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	sched, err := BuildGridSchedule(g, []float64{0.5}, []float64{0.5}, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil || !res.Completed {
		t.Fatalf("singleton: %v", err)
	}
}

func BenchmarkGridSchedule(b *testing.B) {
	g, xs, ys, r := field(b, 5000, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGridSchedule(g, xs, ys, r, 0); err != nil {
			b.Fatal(err)
		}
	}
}

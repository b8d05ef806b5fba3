package lower

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func TestTightenRoundRobinCollapses(t *testing.T) {
	const n = 300
	d := 12.0
	g := connected(t, n, d, 1)
	rr := core.RoundRobinSchedule(g, 0)
	tightened, rounds, ok := TightenSchedule(g, 0, rr, 400, xrand.New(2))
	if !ok {
		t.Fatal("round robin reported invalid")
	}
	if rounds >= rr.Len() {
		t.Fatalf("no shortening: %d -> %d", rr.Len(), rounds)
	}
	// Validity: the returned schedule completes under the filter policy.
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: tightened, Engine: radio.NewEngine(g, 0, radio.FilterUninformed)}, nil)
	if err != nil || !res.Completed {
		t.Fatalf("tightened schedule invalid: %v informed=%d", err, res.Informed)
	}
	if res.Rounds != rounds {
		t.Fatalf("reported rounds %d != replay %d", rounds, res.Rounds)
	}
}

func TestTightenRespectsEccentricity(t *testing.T) {
	const n = 500
	d := 2 * math.Log(n)
	g := connected(t, n, d, 3)
	sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, ok := TightenSchedule(g, 0, sched, 600, xrand.New(4))
	if !ok {
		t.Fatal("input schedule invalid")
	}
	if rounds < Eccentricity(g, 0) {
		t.Fatalf("tightened below eccentricity: %d < %d", rounds, Eccentricity(g, 0))
	}
	if rounds > sched.Len() {
		t.Fatalf("tightening lengthened: %d -> %d", sched.Len(), rounds)
	}
}

func TestTightenCannotBeatTheBoundShape(t *testing.T) {
	// The search-based adversary corroborates Theorem 6: starting from
	// the paper's schedule, local search cannot push far below the bound.
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 5)
	sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, ok := TightenSchedule(g, 0, sched, 500, xrand.New(6))
	if !ok {
		t.Fatal("input invalid")
	}
	if float64(rounds) < 0.3*core.CentralizedBound(n, d) {
		t.Fatalf("local search reached %d rounds, below 0.3x bound %.1f — investigate",
			rounds, core.CentralizedBound(n, d))
	}
}

func TestTightenIncompleteInput(t *testing.T) {
	g := gen.Path(10)
	short := &radio.Schedule{Sets: [][]int32{{0}}}
	_, _, ok := TightenSchedule(g, 0, short, 50, xrand.New(7))
	if ok {
		t.Fatal("incomplete input reported valid")
	}
}

func TestTightenDoesNotMutateInput(t *testing.T) {
	g := gen.Path(5)
	s := &radio.Schedule{Sets: [][]int32{{0}, {1}, {2}, {3}}}
	before := s.Len()
	_, _, _ = TightenSchedule(g, 0, s, 100, xrand.New(8))
	if s.Len() != before {
		t.Fatal("input schedule mutated")
	}
	for i, set := range s.Sets {
		if len(set) != 1 || set[0] != int32(i) {
			t.Fatal("input schedule contents mutated")
		}
	}
}

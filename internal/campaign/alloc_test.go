package campaign

import (
	"context"
	"testing"

	"repro/internal/xrand"
)

// Steady-state allocation regressions for the trial hot loops: a
// fixed-graph runner builds its graph and engine once, so per-trial work
// must not allocate — neither on the scalar path (BroadcastTimeOnContext
// materialises no Result) nor on the lane batch path (the lane engine
// reuses every buffer across Run calls).

func fixedPoint(kind string) PointSpec {
	return PointSpec{ID: "p", X: 1, Trial: TrialSpec{Kind: kind, N: 400, D: 12, FixedGraph: true}}
}

func TestFixedGraphTrialAllocs(t *testing.T) {
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate"} {
		runner, err := newRunner(fixedPoint(kind), 7, false)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []uint64{1}
		values, oks := make([]float64, 1), make([]bool, 1)
		run := func() {
			if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up lazily grown engine scratch
		seeds[0] = 99
		if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
			t.Errorf("%s fixed-graph scalar trial allocates %.1f objects/trial, want 0", kind, allocs)
		}
	}
}

func TestLaneBatchSteadyStateAllocs(t *testing.T) {
	for _, kind := range []string{"distributed", "collision-rate"} {
		t.Run(kind, func(t *testing.T) { testLaneBatchSteadyStateAllocs(t, kind) })
	}
}

func testLaneBatchSteadyStateAllocs(t *testing.T, kind string) {
	runner, err := newRunner(fixedPoint(kind), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 16
	seeds := make([]uint64, trials)
	values := make([]float64, trials)
	oks := make([]bool, trials)
	parent := xrand.New(3)
	fill := func(base uint64) {
		for i := range seeds {
			seeds[i] = parent.DeriveSeed(base + uint64(i) + 1)
		}
	}
	fill(0)
	if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
		t.Fatal(err) // warm up: builds the lane engine and its buffers
	}
	fill(trials)
	if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
		t.Fatal(err) // second warm run settles amortized buffer growth
	}
	allocs := testing.AllocsPerRun(10, func() {
		fill(2 * trials)
		if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("lane batch allocates %.1f objects/block in steady state, want 0", allocs)
	}
	for i, v := range values {
		// A completion round is at least 1; a collision rate lies in (0, 1).
		if !oks[i] || (kind == "distributed") != (v >= 1) || v <= 0 {
			t.Fatalf("trial %d: implausible value %v (ok=%v)", i, v, oks[i])
		}
	}
}

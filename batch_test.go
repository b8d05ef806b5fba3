package repro_test

import (
	"context"
	"errors"
	"testing"

	"repro"
	"repro/internal/lanes"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

func batchGraph(t *testing.T) *repro.Graph {
	t.Helper()
	g, ok := repro.ConnectedGnpDegree(600, 12, repro.NewRand(5))
	if !ok {
		t.Fatal("no connected sample")
	}
	return g
}

// TestRunBatchMatchesRunBlocks: the facade is exactly the lane engine
// over the repository-wide trial-seed convention.
func TestRunBatchMatchesRunBlocks(t *testing.T) {
	g := batchGraph(t)
	const trials = 130 // spans three 64-lane blocks, last one partial
	got, err := repro.RunBatch(g, 0, trials, repro.WithDegree(12), repro.WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	p := repro.NewProtocol(600, 12)
	budget := repro.MaxRounds(600)
	plan, ok := lanes.NewPlan(p, budget)
	if !ok {
		t.Fatal("distributed protocol must be lane-uniform")
	}
	want := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, sweep.Seeds(trials, 99), 0, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: RunBatch %d != RunBlocks %d", i, got[i], want[i])
		}
	}
	for i, r := range got {
		if r < 1 || r > budget {
			t.Fatalf("trial %d: round %d outside [1, %d]", i, r, budget)
		}
	}
}

// nonUniformProtocol transmits only from odd nodes — its rounds are not
// uniform across informed nodes, so RunBatch must fall back to scalar
// per-trial engines.
type nonUniformProtocol struct{}

func (nonUniformProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return v%2 == 1 && rng.Bernoulli(0.3)
}

func TestRunBatchScalarFallback(t *testing.T) {
	g := batchGraph(t)
	if _, ok := lanes.NewPlan(nonUniformProtocol{}, 10); ok {
		t.Fatal("test protocol must not be lane-uniform")
	}
	const trials = 9
	a, err := repro.RunBatch(g, 0, trials, repro.WithProtocol(nonUniformProtocol{}), repro.WithSeed(7), repro.WithMaxRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.RunBatch(g, 0, trials, repro.WithProtocol(nonUniformProtocol{}), repro.WithSeed(7), repro.WithMaxRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d not deterministic: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 1 || a[i] > 201 {
			t.Fatalf("trial %d: round %d outside [1, 201]", i, a[i])
		}
	}
}

func TestRunBatchOptionErrors(t *testing.T) {
	g := batchGraph(t)
	sched, err := repro.BuildSchedule(g, 0, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []repro.Option
	}{
		{"schedule", []repro.Option{repro.WithSchedule(sched)}},
		{"observer", []repro.Option{repro.WithObserver(&repro.Counters{})}},
		{"rand", []repro.Option{repro.WithRand(repro.NewRand(1))}},
		{"engine", []repro.Option{repro.WithEngine(repro.NewEngine(g, 0))}},
		{"protocol+degree", []repro.Option{repro.WithProtocol(nonUniformProtocol{}), repro.WithDegree(3)}},
		{"negative budget", []repro.Option{repro.WithMaxRounds(-1)}},
		{"bad source", []repro.Option{repro.WithSources(100000)}},
	}
	for _, tc := range cases {
		_, err := repro.RunBatch(g, 0, 4, tc.opts...)
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !errors.Is(err, repro.ErrConflictingOptions) && !errors.Is(err, repro.ErrNoSuchSource) {
			t.Errorf("%s: error %v not classified by a sentinel", tc.name, err)
		}
	}
}

func TestRunBatchEmptyAndCancel(t *testing.T) {
	g := batchGraph(t)
	out, err := repro.RunBatch(g, 0, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("zero trials: got %v, %v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.RunBatch(g, 0, 8, repro.WithContext(ctx)); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("canceled batch: got %v, want ErrCanceled", err)
	}
}

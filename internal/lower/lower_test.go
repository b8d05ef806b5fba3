package lower

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func connected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Fatalf("no connected sample")
	}
	return g
}

func TestEccentricityBound(t *testing.T) {
	g := gen.Path(10)
	if Eccentricity(g, 0) != 9 {
		t.Fatalf("ecc = %d", Eccentricity(g, 0))
	}
	// Any complete schedule needs at least ecc rounds: verify against the
	// greedy adversary.
	_, res, err := GreedyAdaptiveSchedule(g, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds < 9 {
		t.Fatalf("greedy on path: %+v", res.Rounds)
	}
}

func TestGreedyAdaptiveCompletesAndIsValid(t *testing.T) {
	g := connected(t, 400, 12, 1)
	sched, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("greedy incomplete: %d/400", res.Informed)
	}
	// Replay validates the schedule independently.
	replay, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil || !replay.Completed {
		t.Fatalf("replay: %v %d", err, replay.Informed)
	}
	if replay.Rounds != res.Rounds {
		t.Fatalf("replay rounds %d != build rounds %d", replay.Rounds, res.Rounds)
	}
}

func TestGreedyAdaptiveRespectsEccentricity(t *testing.T) {
	g := connected(t, 500, 10, 2)
	ecc := Eccentricity(g, 0)
	_, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < ecc {
		t.Fatalf("greedy finished in %d rounds below eccentricity %d", res.Rounds, ecc)
	}
}

func TestGreedyAdaptiveNotBelowBoundShape(t *testing.T) {
	// E3 in miniature: even the greedy adversary should not finish far
	// below the Theorem 6 shape.
	for _, tc := range []struct {
		n int
		d float64
	}{
		{500, 12}, {1000, 15}, {2000, 18},
	} {
		g := connected(t, tc.n, tc.d, uint64(tc.n))
		_, res, err := GreedyAdaptiveSchedule(g, 0, 10000)
		if err != nil {
			t.Fatal(err)
		}
		bound := core.CentralizedBound(tc.n, tc.d)
		ratio := float64(res.Rounds) / bound
		if ratio < 0.2 {
			t.Fatalf("n=%d: greedy %d rounds is %.2fx the bound %.1f — far below the lower-bound shape",
				tc.n, res.Rounds, ratio, bound)
		}
	}
}

func TestGreedyFasterThanConstructive(t *testing.T) {
	// The greedy adversary should be no slower than the paper's
	// constructive schedule (it has strictly more freedom).
	const n = 1000
	const d = 15.0
	g := connected(t, n, d, 3)
	_, greedy, err := GreedyAdaptiveSchedule(g, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	sched, _, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	constructive, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Rounds > constructive.Rounds+3 {
		t.Fatalf("greedy (%d) much slower than constructive (%d)", greedy.Rounds, constructive.Rounds)
	}
}

func TestSurvivorProbeExtremes(t *testing.T) {
	rng := xrand.New(4)
	// k = 0 means nobody can be informed beyond... k=1 with tiny k:
	// survival prob per node 1/2 (singleton) — with n = 100 nodes some
	// survivor almost surely.
	if p := SurvivorProbe(100, 1, 200, 0, rng); p < 0.99 {
		t.Fatalf("1-round survivor prob %v, want ~1", p)
	}
	// Very long sequences kill everyone.
	if p := SurvivorProbe(100, 200, 200, 0.5, rng); p > 0.01 {
		t.Fatalf("200-round survivor prob %v, want ~0", p)
	}
	if !math.IsNaN(SurvivorProbe(10, 5, 0, 0.5, rng)) {
		t.Fatal("zero trials should be NaN")
	}
}

func TestSurvivorProbeMatchesTheory(t *testing.T) {
	// With only pair sets (pairFraction 1), per-node survival is (1/2)^k
	// (both-or-neither = 1/2 each round). P(some of n survives) =
	// 1 - (1 - 2^-k)^n.
	rng := xrand.New(5)
	n, k := 50, 8
	want := 1 - math.Pow(1-math.Pow(0.5, float64(k)), float64(n))
	got := SurvivorProbe(n, k, 5000, 1, rng)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("survivor prob %v, theory %v", got, want)
	}
}

func TestSurvivorThresholdGrowsLogarithmically(t *testing.T) {
	rng := xrand.New(6)
	t1 := SurvivorThreshold(1<<8, 400, 0.5, rng)
	t2 := SurvivorThreshold(1<<16, 400, 0.5, rng)
	// Theory: threshold ≈ log_{1/s} n where s is per-round survival; the
	// n = 2^16 threshold should be about double the 2^8 one, certainly not
	// 256x (linear) and not equal (constant).
	if t2 <= t1 {
		t.Fatalf("threshold did not grow: %d -> %d", t1, t2)
	}
	ratio := float64(t2) / float64(t1)
	if ratio > 4 {
		t.Fatalf("threshold grew too fast: %d -> %d", t1, t2)
	}
}

func TestSequenceProtocol(t *testing.T) {
	p := &SequenceProtocol{Q: []float64{1, 0}}
	rng := xrand.New(7)
	if !p.Transmit(0, 1, 0, rng) {
		t.Fatal("q=1 round did not transmit")
	}
	if p.Transmit(0, 2, 0, rng) {
		t.Fatal("q=0 round transmitted")
	}
	if !p.Transmit(0, 3, 0, rng) {
		t.Fatal("cycle did not wrap")
	}
	empty := &SequenceProtocol{}
	if empty.Transmit(0, 1, 0, rng) {
		t.Fatal("empty sequence transmitted")
	}
}

func TestCandidateSequencesValid(t *testing.T) {
	cands := CandidateSequences(20, 10)
	if len(cands) < 8 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, c := range cands {
		if len(c.Q) == 0 {
			t.Fatal("empty candidate")
		}
		for _, q := range c.Q {
			if q < 0 || q > 1 {
				t.Fatalf("probability %v out of range", q)
			}
		}
	}
	// Degenerate period.
	if cands := CandidateSequences(5, 0); len(cands) == 0 {
		t.Fatal("no candidates for period 0")
	}
}

func TestOptimizeSequenceFindsReasonableProtocol(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 8)
	rng := xrand.New(9)
	best, bestP := OptimizeSequence(g, 0, d, core.MaxRoundsFor(n), 3, rng)
	if bestP == nil {
		t.Fatal("no best protocol")
	}
	if best > float64(core.MaxRoundsFor(n)) {
		t.Fatalf("no candidate completed: best = %v", best)
	}
	// Theorem 8: even the best oblivious sequence needs Ω(ln n).
	if best < 0.5*math.Log(float64(n)) {
		t.Fatalf("best oblivious time %v below ln n/2 = %v — contradicts Theorem 8 shape",
			best, 0.5*math.Log(float64(n)))
	}
}

func BenchmarkGreedyAdaptive(b *testing.B) {
	g := connected(b, 500, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GreedyAdaptiveSchedule(g, 0, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurvivorProbe(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		SurvivorProbe(1000, 20, 100, 0.5, rng)
	}
}

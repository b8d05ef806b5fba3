package campaign

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
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

// freshScratchPool swaps an empty scratch pool in for the rest of the
// test and returns the number of scratches it has had to create, that is
// the checkouts no idle scratch could serve.
func freshScratchPool(t *testing.T) *atomic.Int64 {
	saved := scratchPool
	created := new(atomic.Int64)
	scratchPool = &sync.Pool{New: func() any {
		created.Add(1)
		return new(trialScratch)
	}}
	t.Cleanup(func() { scratchPool = saved })
	return created
}

// TestResampledTrialAllocs requires a warm resampled trial, which draws
// its graph into a pooled scratch and runs on the scratch's engine, to
// allocate on average under a quarter of one fresh CSR of its graph. A
// centralized trial also builds its schedule in the scratch, on the
// scratch's engine. A new scratch costs about two CSRs; the pool makes
// one when the collector cleared it, or when the test moves to a
// processor whose pool shard holds none. Up to four of those among the
// trials stay inside the bound.
func TestResampledTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, kind := range []string{"distributed", "centralized"} {
		t.Run(kind, func(t *testing.T) { testResampledTrialAllocs(t, kind) })
	}
}

func testResampledTrialAllocs(t *testing.T, kind string) {
	const n, d, trials = 20000, 25, 40
	runner, err := newRunner(PointSpec{ID: "p", X: 1, Trial: TrialSpec{Kind: kind, N: n, D: d}}, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{0}
	values, oks := make([]float64, 1), make([]bool, 1)
	run := func(seed uint64) {
		seeds[0] = seed
		if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm up: the scratch grows to the graph
	run(2)
	g, _, _ := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(3), 100)
	csr := 8*(g.N()+1) + 4*2*g.M()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < trials; i++ {
		run(uint64(100 + i))
	}
	runtime.ReadMemStats(&m1)
	perTrial := float64(m1.TotalAlloc-m0.TotalAlloc) / trials
	t.Logf("%.0f bytes per resampled %s trial; one fresh CSR is %d bytes", perTrial, kind, csr)
	if perTrial >= float64(csr)/4 {
		t.Errorf("a warm resampled %s trial allocates %.0f bytes, want under a quarter of one fresh CSR (%d bytes)", kind, perTrial, csr)
	}
}

// TestFixedGraphCentralizedTrialAllocs requires a warm FixedGraph
// centralized trial, schedule build and replay together, to allocate
// less than one n-entry InformedAt copy (4n bytes): the build runs on the
// runner's engine and scratch and the replay on that engine, where a
// fresh build costs its own engine, distances and buffers, and a fresh
// replay engine the copy and the engine's buffers.
func TestFixedGraphCentralizedTrialAllocs(t *testing.T) {
	const n, d, trials = 20000, 25, 10
	p := PointSpec{ID: "p", X: 1, Trial: TrialSpec{Kind: "centralized", N: n, D: d, FixedGraph: true}}
	runner, err := newRunner(p, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{0}
	values, oks := make([]float64, 1), make([]bool, 1)
	run := func(seed uint64) {
		seeds[0] = seed
		if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm up the scratch and the engine's result buffer
	run(2)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < trials; i++ {
		run(uint64(100 + i))
	}
	runtime.ReadMemStats(&m1)
	perTrial := float64(m1.TotalAlloc-m0.TotalAlloc) / trials
	t.Logf("%.0f bytes per warm FixedGraph centralized trial", perTrial)
	if perTrial >= 4*n {
		t.Errorf("a warm FixedGraph centralized trial allocates %.0f bytes, want under %d", perTrial, 4*n)
	}
}

// TestResampledCampaignLeavesEnginePoolAlone requires resampled trials of
// every kind to run on their scratch engines, never on engines of exec's
// per-graph pool, which must not key on a graph that the next draw
// rewrites.
func TestResampledCampaignLeavesEnginePoolAlone(t *testing.T) {
	spec := &Spec{Name: "pool-isolation", Seed: 9, Trials: 4}
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate", "centralized"} {
		spec.Points = append(spec.Points, PointSpec{ID: kind, X: 1, Trial: TrialSpec{Kind: kind, N: 800, D: 10}})
	}
	before := exec.Snapshot()
	if _, err := Run(spec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	after := exec.Snapshot()
	if after.Scalar.Runs == before.Scalar.Runs || after.Schedule.Runs == before.Schedule.Runs {
		t.Fatal("the campaign dispatched no scalar or schedule run")
	}
	if after.Scalar.PoolHits != before.Scalar.PoolHits || after.Scalar.PoolMisses != before.Scalar.PoolMisses {
		t.Errorf("scalar engine pool hits/misses moved from %d/%d to %d/%d",
			before.Scalar.PoolHits, before.Scalar.PoolMisses, after.Scalar.PoolHits, after.Scalar.PoolMisses)
	}
}

// TestFixedGraphRunnersTakeNoScratch requires FixedGraph runners of every
// kind, on either engine, to leave the scratch pool alone, and a
// resampled runner to take from it.
func TestFixedGraphRunnersTakeNoScratch(t *testing.T) {
	created := freshScratchPool(t)
	seeds := []uint64{4, 5, 6}
	values, oks := make([]float64, len(seeds)), make([]bool, len(seeds))
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate", "centralized"} {
		for _, lanes := range []bool{false, true} {
			runner, err := newRunner(fixedPoint(kind), 7, lanes)
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.RunTrials(context.Background(), seeds, values, oks); err != nil {
				t.Fatal(err)
			}
			if c := created.Load(); c != 0 {
				t.Fatalf("FixedGraph %s runner (lanes=%v) took %d scratches", kind, lanes, c)
			}
		}
	}
	p := fixedPoint("distributed")
	p.Trial.FixedGraph = false
	runner, err := newRunner(p, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.RunTrials(context.Background(), seeds[:1], values[:1], oks[:1]); err != nil {
		t.Fatal(err)
	}
	if created.Load() == 0 {
		t.Fatal("a resampled runner took no scratch")
	}
}

// TestTrialScratchFollowsN draws into one scratch over an n sequence that
// grows, shrinks and grows again. Each trial on the scratch's engine must
// give the round count of the same trial on fresh storage, so an engine
// built for one n never serves another.
func TestTrialScratchFollowsN(t *testing.T) {
	var s trialScratch
	ctx := context.Background()
	for i, n := range []int{600, 1500, 400, 2500} {
		spec := TrialSpec{Kind: "distributed", N: n, D: 10}
		req := exec.Request{Sources: []int32{0}, Protocol: core.NewDistributedProtocol(n, spec.D), MaxRounds: spec.maxRounds()}
		freshRng := xrand.New(uint64(i + 1))
		fresh := req
		fresh.Graph = sampleConnected(nil, n, spec.D, freshRng)
		want, err := exec.Time(ctx, &fresh, freshRng)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(i + 1))
		req.Graph, req.Engine = s.draw(spec, rng)
		got, err := exec.Time(ctx, &req, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: trial on the scratch took %d rounds, on fresh storage %d", n, got, want)
		}
	}
}

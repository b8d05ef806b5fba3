package repro

// Benchmark harness: one Benchmark per reproduction experiment (E1–E23 of
// DESIGN.md §3 — the paper is a theory extended abstract with no tables or
// figures, so each of its claims and each extension maps to one experiment
// here), plus micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the full experiment at Small scale
// per iteration and ALSO prints its result table the first time, so a
// bench run regenerates every number in miniature; cmd/experiments
// produces the Medium-scale tables recorded in EXPERIMENTS.md.

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/gossip"
	"repro/internal/lanes"
	"repro/internal/radio"
	"repro/internal/rumor"
)

var benchPrintOnce sync.Map // experiment ID -> *sync.Once

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	oncer, _ := benchPrintOnce.LoadOrStore(id, &sync.Once{})
	for i := 0; i < b.N; i++ {
		cfg := exp.Config{Scale: exp.Small, Seed: 1000 + uint64(i)}
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		oncer.(*sync.Once).Do(func() {
			b.Logf("%s: %s\n", e.ID, e.Title)
			for _, t := range tables {
				b.Logf("\n%s", t.String())
			}
		})
	}
}

func BenchmarkE1CentralizedScalingN(b *testing.B)    { runExperiment(b, "E1") }
func BenchmarkE2CentralizedScalingD(b *testing.B)    { runExperiment(b, "E2") }
func BenchmarkE3CentralizedLowerBound(b *testing.B)  { runExperiment(b, "E3") }
func BenchmarkE4DistributedScalingN(b *testing.B)    { runExperiment(b, "E4") }
func BenchmarkE5ProtocolComparison(b *testing.B)     { runExperiment(b, "E5") }
func BenchmarkE6DistributedLowerBound(b *testing.B)  { runExperiment(b, "E6") }
func BenchmarkE7LayerStructure(b *testing.B)         { runExperiment(b, "E7") }
func BenchmarkE8CoversMatchings(b *testing.B)        { runExperiment(b, "E8") }
func BenchmarkE9DenseRegime(b *testing.B)            { runExperiment(b, "E9") }
func BenchmarkE10ModelCrossover(b *testing.B)        { runExperiment(b, "E10") }
func BenchmarkE11GnmEquivalence(b *testing.B)        { runExperiment(b, "E11") }
func BenchmarkE12Ablations(b *testing.B)             { runExperiment(b, "E12") }
func BenchmarkE13Gossiping(b *testing.B)             { runExperiment(b, "E13") }
func BenchmarkE14ExactOptima(b *testing.B)           { runExperiment(b, "E14") }
func BenchmarkE15ScheduleFamily(b *testing.B)        { runExperiment(b, "E15") }
func BenchmarkE16CrashFaults(b *testing.B)           { runExperiment(b, "E16") }
func BenchmarkE17CommunityStructure(b *testing.B)    { runExperiment(b, "E17") }
func BenchmarkE18SourceInvariance(b *testing.B)      { runExperiment(b, "E18") }
func BenchmarkE19KnowledgeAndCD(b *testing.B)        { runExperiment(b, "E19") }
func BenchmarkE20PipelineThroughput(b *testing.B)    { runExperiment(b, "E20") }
func BenchmarkE21LeaderElection(b *testing.B)        { runExperiment(b, "E21") }
func BenchmarkE22ConnectivityThreshold(b *testing.B) { runExperiment(b, "E22") }
func BenchmarkE23CollisionTrace(b *testing.B)        { runExperiment(b, "E23") }

// --- fast-path micro-benchmarks --------------------------------------------
//
// BenchmarkBuilderBuild, BenchmarkGnp and BenchmarkBroadcast are the three
// benchmarks tracked in BENCH_0.json (the recorded baseline of the
// simulation fast path): CSR construction, G(n,p) generation and one full
// distributed broadcast. Regenerate the numbers with:
//
//	go test -run=^$ -bench='BenchmarkBuilderBuild$|BenchmarkGnp$|BenchmarkBroadcast$' -benchmem

// benchEdges returns a fixed random edge list with n=100k, E[deg]=25
// (about 1.25M edges), shared by the build benchmarks.
func benchEdges() (int, [][2]int32) {
	const n = 100000
	rng := NewRand(11)
	g := GnpDegree(n, 25, rng)
	edges := make([][2]int32, 0, g.M())
	g.Edges(func(u, v int32) bool {
		edges = append(edges, [2]int32{u, v})
		return true
	})
	return n, edges
}

func BenchmarkBuilderBuild(b *testing.B) {
	n, edges := benchEdges()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bl := NewBuilder(n)
		bl.Grow(len(edges))
		for _, e := range edges {
			bl.AddEdge(e[0], e[1])
		}
		b.StartTimer()
		g := bl.Build()
		if g.M() != len(edges) {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkGnp(b *testing.B) {
	rng := NewRand(12)
	const n = 100000
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := GnpDegree(n, 25, rng)
		if g.N() != n {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkBroadcast(b *testing.B) {
	rng := NewRand(13)
	const n = 100000
	const d = 25.0
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _ := Run(g, 0, WithProtocol(perNodeProtocol(n, d)), WithRand(rng))
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkBroadcastReuse is BenchmarkBroadcast on the engine-reuse fast
// path: one caller-owned engine driven by radio.BroadcastTimeOnContext, so
// steady-state trials allocate nothing. Compare with BenchmarkBroadcast to
// see the per-trial allocation cost the reuse API removes.
func BenchmarkBroadcastReuse(b *testing.B) {
	benchBroadcastReuse(b, 100000, 25.0)
}

// BenchmarkBroadcastReuseSmall is BenchmarkBroadcastReuse at n=5000,
// d=2 ln n: the trial radiobench's serve-hot workload runs behind every
// request, small enough that the engine's planes stay in cache and the
// round's reception work, not memory, sets the pace. It allocates nothing
// per trial.
func BenchmarkBroadcastReuseSmall(b *testing.B) {
	benchBroadcastReuse(b, 5000, 2*math.Log(5000))
}

func benchBroadcastReuse(b *testing.B, n int, d float64) {
	rng := NewRand(13)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	e := NewEngine(g, 0)
	p := NewProtocol(n, d)
	budget := MaxRounds(n)
	// One untimed warm trial grows the engine's lazily sized scratch, so
	// B/op and allocs/op report the steady per-trial cost rather than
	// set-up divided by b.N.
	radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _ := radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng); r > budget {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkBroadcastReusePerNode is BenchmarkBroadcastReuse with the
// protocol's uniform rounds hidden (perNodeProtocol): the engine asks the
// protocol for one Bernoulli decision per informed node per round — the
// pre-fast-path behaviour, frozen by deprecated_stream_test.go. The ratio
// BroadcastReusePerNode / BroadcastReuse is the fast-path speedup recorded
// in BENCH_2.json.
func BenchmarkBroadcastReusePerNode(b *testing.B) {
	rng := NewRand(13)
	const n = 100000
	const d = 25.0
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	e := NewEngine(g, 0)
	p := perNodeProtocol(n, d)
	budget := MaxRounds(n)
	// One untimed warm trial grows the engine's lazily sized scratch, so
	// B/op and allocs/op report the steady per-trial cost rather than
	// set-up divided by b.N.
	radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _ := radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng); r > budget {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkLaneBroadcast measures the bit-parallel lane engine on exactly
// the BenchmarkBroadcastReuse workload (same graph seed, n, degree,
// protocol and round budget): each iteration runs one 64-trial lane block,
// so the recorded ns/trial metric divides directly into the scalar
// benchmark's ns/op — that ratio is the lane-engine speedup recorded in
// BENCH_3.json. Seeds rotate per iteration so the measurement averages
// over trial outcomes like the scalar benchmark's advancing rng does.
func BenchmarkLaneBroadcast(b *testing.B) {
	benchLaneBroadcast(b, 100000, 25.0, false)
}

// BenchmarkLaneBroadcastSmall is BenchmarkLaneBroadcast at n=10k — the
// second row of the EXPERIMENTS.md throughput table, where the working
// set fits in cache and the lane advantage is at its largest.
func BenchmarkLaneBroadcastSmall(b *testing.B) {
	benchLaneBroadcast(b, 10000, 25.0, false)
}

// BenchmarkLaneBroadcastObserved is BenchmarkLaneBroadcast with one
// Counters observer per lane — the lane twin of
// BenchmarkBroadcastReuseObserved. Its ns/trial over
// BenchmarkLaneBroadcast's is the cost of observing a lane block (the
// bit-sliced counting, and the saturated-listener skip it turns off);
// BenchmarkBroadcastReuseObserved ns/op over it is the lane speedup when
// both engines are observed.
func BenchmarkLaneBroadcastObserved(b *testing.B) {
	benchLaneBroadcast(b, 100000, 25.0, true)
}

// BenchmarkLaneBroadcastParallel is BenchmarkLaneBroadcast with
// GOMAXPROCS engines on the one graph, each running its own 64-lane
// blocks concurrently — the shape of radiobench's batch-lanes, whose
// engines share the machine's memory bandwidth. ns/trial is wall time
// over all trials, so it shows the full effect of a memory-bound change
// that a single engine understates.
func BenchmarkLaneBroadcastParallel(b *testing.B) {
	g, plan, budget := laneWorkload(b, 100000, 25.0)
	parent := NewRand(1)
	engines := make(chan *lanes.Engine, runtime.GOMAXPROCS(0))
	for range cap(engines) {
		engines <- warmLaneEngine(g, plan, parent)
	}
	var blocks atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		e := <-engines
		seeds := make([]uint64, lanes.Width)
		out := make([]int, lanes.Width)
		for pb.Next() {
			blockSeeds(parent, seeds, (blocks.Add(1)-1)*lanes.Width)
			e.Run(seeds, out)
			for _, r := range out {
				if r > budget {
					b.Error("incomplete")
					return
				}
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*lanes.Width), "ns/trial")
}

func benchLaneBroadcast(b *testing.B, n int, d float64, observed bool) {
	g, plan, budget := laneWorkload(b, n, d)
	parent := NewRand(1)
	e := lanes.NewEngine(g, []int32{0}, plan)
	var counters [lanes.Width]Counters
	if observed {
		obs := make([]Observer, lanes.Width)
		for i := range obs {
			obs[i] = &counters[i]
		}
		e.Observe(obs)
	}
	warmLane(e, parent)
	counters = [lanes.Width]Counters{}
	seeds := make([]uint64, lanes.Width)
	out := make([]int, lanes.Width)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blockSeeds(parent, seeds, uint64(i)*lanes.Width)
		e.Run(seeds, out)
		for _, r := range out {
			if r > budget {
				b.Fatal("incomplete")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*lanes.Width), "ns/trial")
	if observed && (counters[0].Runs != b.N || counters[0].Informed != n) {
		b.Fatalf("lane 0 observer missed runs: %+v", counters[0])
	}
}

// laneWorkload is the lane benchmarks' workload: the connected
// G(n, d/n) sample of BenchmarkBroadcastReuse, the distributed
// protocol's lane plan and its round budget.
func laneWorkload(b *testing.B, n int, d float64) (*Graph, *lanes.Plan, int) {
	g, ok := ConnectedGnpDegree(n, d, NewRand(13))
	if !ok {
		b.Fatal("no connected sample")
	}
	budget := MaxRounds(n)
	plan, ok := lanes.NewPlan(NewProtocol(n, d), budget)
	if !ok {
		b.Fatal("distributed protocol must be lane-uniform")
	}
	return g, plan, budget
}

// warmLaneEngine returns a lane engine on g from source 0, warmed by
// warmLane.
func warmLaneEngine(g *Graph, plan *lanes.Plan, parent *Rand) *lanes.Engine {
	e := lanes.NewEngine(g, []int32{0}, plan)
	warmLane(e, parent)
	return e
}

// warmLane runs one untimed block on e. It grows the per-lane eligible
// lists to their full size (about 130 MB of appends at n=1e5), so B/op
// and allocs/op report the steady per-block cost rather than set-up
// divided by b.N. Its seeds lie outside the timed blocks' range.
func warmLane(e *lanes.Engine, parent *Rand) {
	seeds := make([]uint64, lanes.Width)
	blockSeeds(parent, seeds, 1<<40)
	e.Run(seeds, make([]int, lanes.Width))
}

// blockSeeds fills seeds with the trial seeds of the block starting at
// trial base.
func blockSeeds(parent *Rand, seeds []uint64, base uint64) {
	for j := range seeds {
		seeds[j] = parent.DeriveSeed(base + uint64(j) + 1)
	}
}

// BenchmarkFacadeRunBatch is the executor-path guard: the exact
// BenchmarkLaneBroadcast workload entered through the public facade, so
// each iteration pays the whole unified execution layer — option parsing,
// backend classification, seed derivation and the lane-engine pool
// checkout — on top of the 64-trial lane block. Its ns/trial against BENCH_2's
// scalar reference is recorded in BENCH_4.json with the same >= 6x bar
// as the raw lane engine: routing every consumer through internal/exec
// must not cost the batch path its acceptance margin.
func BenchmarkFacadeRunBatch(b *testing.B) {
	rng := NewRand(13)
	const n = 100000
	const d = 25.0
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	budget := MaxRounds(n)
	// One untimed warm call fills the executor's lane-engine pool, so B/op
	// and allocs/op report the steady per-call cost of a repeated batch on
	// one graph rather than engine construction divided by b.N.
	if _, err := RunBatch(g, 0, int(lanes.Width), WithDegree(d), WithSeed(1<<40)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rounds, err := RunBatch(g, 0, int(lanes.Width), WithDegree(d), WithSeed(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rounds {
			if r > budget {
				b.Fatal("incomplete")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*lanes.Width), "ns/trial")
}

// BenchmarkGossipPhased measures one phased gossip run (sampled fast path:
// Uniform/Phased declare uniform rounds); n is small because gossip state
// is n²/8 bytes.
func BenchmarkGossipPhased(b *testing.B) {
	rng := NewRand(14)
	const n = 2000
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := gossip.Run(g, gossip.NewPhased(g.N(), d), 100000, rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkBroadcastReuseObserved is BenchmarkBroadcastReuse with a
// Counters observer attached — the observer-layer overhead guard. The
// per-round cost of observation is one RoundRecord (a stack value) and one
// interface call; compare with BenchmarkBroadcastReuse to see it, and note
// that the reuse benchmark itself runs with a nil observer, so the
// zero-cost-when-disabled claim is covered by its unchanged numbers (see
// BENCH_1.json).
func BenchmarkBroadcastReuseObserved(b *testing.B) {
	rng := NewRand(13)
	const n = 100000
	const d = 25.0
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	e := NewEngine(g, 0)
	var c Counters
	e.Attach(&c)
	p := NewProtocol(n, d)
	budget := MaxRounds(n)
	// One untimed warm trial grows the engine's lazily sized scratch, so
	// B/op and allocs/op report the steady per-trial cost rather than
	// set-up divided by b.N.
	radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng)
	c = Counters{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, _ := radio.BroadcastTimeOnContext(context.Background(), e, p, budget, rng); r > budget {
			b.Fatal("incomplete")
		}
	}
	if c.Runs != b.N || c.Informed != n {
		b.Fatalf("counters missed runs: %+v", c)
	}
}

// --- substrate micro-benchmarks --------------------------------------------

func BenchmarkSubstrateGnpGeneration(b *testing.B) {
	rng := NewRand(1)
	const n = 100000
	d := 2 * math.Log(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := GnpDegree(n, d, rng)
		if g.N() != n {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkSubstrateCentralizedBuild(b *testing.B) {
	rng := NewRand(2)
	const n = 20000
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSchedule(g, 0, d, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateDistributedRun(b *testing.B) {
	rng := NewRand(3)
	const n = 20000
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := Run(g, 0, WithProtocol(perNodeProtocol(n, d)), WithRand(rng))
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkSubstrateEngineRound(b *testing.B) {
	rng := NewRand(4)
	const n = 50000
	d := 20.0
	g := GnpDegree(n, d, rng)
	e := radio.NewEngine(g, 0, radio.MagicTransmitters)
	tx := rng.Sample(n, n/int(d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Round(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstratePushRumor(b *testing.B) {
	rng := NewRand(5)
	const n = 20000
	d := 3 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		b.Fatal("no connected sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rumor.Spread(g, 0, rumor.Push, 10*MaxRounds(n), rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

package exec_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/xrand"
)

const (
	testN = 300
	testD = 8.0
)

func testGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(testN, gen.PForDegree(testN, testD), xrand.New(seed), 100)
	if !ok {
		t.Fatal("no connected test graph")
	}
	return g
}

func protoReq(g *graph.Graph) *exec.Request {
	return &exec.Request{
		Graph:     g,
		Sources:   []int32{0},
		Protocol:  core.NewDistributedProtocol(g.N(), testD),
		MaxRounds: core.MaxRoundsFor(g.N()),
	}
}

func testSchedule(t testing.TB, g *graph.Graph) *radio.Schedule {
	t.Helper()
	sched, _, err := core.BuildCentralizedSchedule(g, 0, testD, core.DefaultCentralizedConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestClassify covers every classification branch: schedule replay,
// non-uniform protocol, lane-uniform protocol, and each scalar-only
// override that forces a lane-capable batch back to scalar.
func TestClassify(t *testing.T) {
	g := testGraph(t, 1)
	uniform := protoReq(g)
	if got := exec.Classify(uniform); got != exec.BackendScalar {
		t.Errorf("single uniform trial classified %v, want scalar (lanes are batch-only)", got)
	}
	if got := exec.ClassifyBatch(uniform); got != exec.BackendLanes {
		t.Errorf("uniform batch classified %v, want lanes", got)
	}

	sched := &exec.Request{Graph: g, Sources: []int32{0}, Schedule: testSchedule(t, g)}
	if got := exec.Classify(sched); got != exec.BackendSchedule {
		t.Errorf("schedule request classified %v, want schedule", got)
	}
	if got := exec.ClassifyBatch(sched); got != exec.BackendSchedule {
		t.Errorf("schedule batch classified %v, want schedule", got)
	}

	nonUniform := protoReq(g)
	nonUniform.Protocol = &protocols.RoundRobin{N: g.N()}
	if got := exec.ClassifyBatch(nonUniform); got != exec.BackendScalar {
		t.Errorf("non-uniform batch classified %v, want scalar", got)
	}

	observed := protoReq(g)
	observed.Observer = &trace.Counters{}
	if got := exec.ClassifyBatch(observed); got != exec.BackendLanes {
		t.Errorf("observed batch classified %v, want lanes (lane blocks observe per lane)", got)
	}

	for name, mutate := range map[string]func(*exec.Request){
		"force-scalar": func(r *exec.Request) { r.ForceScalar = true },
		"per-node":     func(r *exec.Request) { r.Protocol = struct{ radio.Protocol }{r.Protocol} },
		"engine":       func(r *exec.Request) { r.Engine = radio.NewEngine(g, 0, radio.StrictInformed) },
	} {
		req := protoReq(g)
		mutate(req)
		if got := exec.ClassifyBatch(req); got != exec.BackendScalar {
			t.Errorf("%s batch classified %v, want scalar", name, got)
		}
	}
}

// broadcastTime is the direct-engine reference for one timed trial.
func broadcastTime(e *radio.Engine, p radio.Protocol, maxRounds int, rng *xrand.Rand) int {
	r, _ := radio.BroadcastTimeOnContext(context.Background(), e, p, maxRounds, rng)
	return r
}

// TestRunMatchesEngine: exec.Run is bit-identical to driving the scalar
// engine directly with the same rng — the facade rewire changes nothing.
func TestRunMatchesEngine(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 2)
	req := protoReq(g)

	e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
	want, _ := e.RunProtocolContext(context.Background(), req.Protocol, req.MaxRounds, xrand.New(5))

	got, err := x.Run(context.Background(), req, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Completed != want.Completed || got.Informed != want.Informed {
		t.Errorf("exec.Run = %+v, direct engine = %+v", got, want)
	}
	st := x.Snapshot()
	if st.Scalar.Runs != 1 || st.Scalar.Trials != 1 {
		t.Errorf("scalar counters = %+v, want runs=1 trials=1", st.Scalar)
	}
}

// TestRunSchedule: schedule requests replay deterministically through
// the schedule backend and count there.
func TestRunSchedule(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 3)
	sched := testSchedule(t, g)
	want, err := radio.ExecuteScheduleOnContext(context.Background(), radio.NewEngine(g, 0, radio.StrictInformed), sched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Schedule: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Completed != want.Completed {
		t.Errorf("exec schedule replay = %+v, direct = %+v", got, want)
	}
	st := x.Snapshot()
	if st.Schedule.Runs != 1 || st.Scalar.Runs != 0 {
		t.Errorf("counters = %+v, want the run on the schedule backend", st)
	}
}

// TestRunSeedsLanes: a lane-classified batch matches lanes.RunBlocks
// bit for bit and counts on the lane backend.
func TestRunSeedsLanes(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 4)
	req := protoReq(g)
	seeds := sweep.Seeds(100, 11)

	plan, ok := lanes.NewPlan(req.Protocol, req.MaxRounds)
	if !ok {
		t.Fatal("distributed protocol must be lane-capable")
	}
	want := make([]int, len(seeds))
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 0, 0, want); err != nil {
		t.Fatal(err)
	}

	got := make([]int, len(seeds))
	backend, err := x.RunSeeds(context.Background(), req, seeds, got)
	if err != nil {
		t.Fatal(err)
	}
	if backend != exec.BackendLanes {
		t.Fatalf("backend = %v, want lanes", backend)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: exec %d vs direct lanes %d", i, got[i], want[i])
		}
	}
	st := x.Snapshot()
	if st.Lanes.Runs != 1 || st.Lanes.Trials != int64(len(seeds)) || st.Lanes.Fallbacks != 0 {
		t.Errorf("lane counters = %+v, want runs=1 trials=%d", st.Lanes, len(seeds))
	}
}

// TestRunSeedsFallback: a non-uniform protocol batch falls back to
// per-seed scalar trials — bit-identical to running each seed on a
// fresh engine — and records the fallback. The workers' engines come
// from the per-graph pool, so a second batch hits it once per worker
// and still matches.
func TestRunSeedsFallback(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 5)
	req := protoReq(g)
	req.Protocol = &protocols.RoundRobin{N: g.N()}
	req.MaxRounds = 4 * g.N()
	seeds := sweep.Seeds(9, 13)
	workers := int64(min(runtime.GOMAXPROCS(0), len(seeds)))

	e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
	for call := 1; call <= 2; call++ {
		got := make([]int, len(seeds))
		backend, err := x.RunSeeds(context.Background(), req, seeds, got)
		if err != nil {
			t.Fatal(err)
		}
		if backend != exec.BackendScalar {
			t.Fatalf("backend = %v, want scalar fallback", backend)
		}
		for i, seed := range seeds {
			if want := broadcastTime(e, req.Protocol, req.MaxRounds, xrand.New(seed)); got[i] != want {
				t.Fatalf("call %d trial %d: exec %d vs direct scalar %d", call, i, got[i], want)
			}
		}
	}
	st := x.Snapshot()
	if st.Scalar.Fallbacks != 2 || st.Scalar.Trials != int64(2*len(seeds)) {
		t.Errorf("scalar counters = %+v, want fallbacks=2 trials=%d", st.Scalar, 2*len(seeds))
	}
	if st.Scalar.PoolMisses != workers || st.Scalar.PoolHits != workers {
		t.Errorf("scalar pool misses/hits = %d/%d, want %d/%d (one checkout per worker per call)",
			st.Scalar.PoolMisses, st.Scalar.PoolHits, workers, workers)
	}
}

// countersFor returns one fresh Counters observer per trial.
func countersFor(trials int) ([]trace.Counters, []trace.Observer) {
	c := make([]trace.Counters, trials)
	obs := make([]trace.Observer, trials)
	for i := range c {
		obs[i] = &c[i]
	}
	return c, obs
}

// TestRunSeedsObserved: each trial of an observed batch reports to its
// own observer, on both backends and through both the executor and a
// session, with completion rounds equal to the unobserved batch. Lane
// counts must equal a directly observed lane engine's; scalar-fallback
// counts must equal a scalar engine run per seed with the observer
// attached.
func TestRunSeedsObserved(t *testing.T) {
	g := testGraph(t, 15)
	seeds := sweep.Seeds(exec.Width+9, 31) // two lane blocks
	lane := protoReq(g)
	scalar := protoReq(g)
	scalar.Protocol = &protocols.RoundRobin{N: g.N()}
	scalar.MaxRounds = 4 * g.N()

	plan, _ := lanes.NewPlan(lane.Protocol, lane.MaxRounds)
	le := lanes.NewEngine(g, lane.Sources, plan)
	laneWant, laneObs := countersFor(len(seeds))
	laneRounds := make([]int, len(seeds))
	if err := lanes.RunBlocksOn(context.Background(), []*lanes.Engine{le}, seeds, laneObs, laneRounds); err != nil {
		t.Fatal(err)
	}
	scalarWant := make([]trace.Counters, len(seeds))
	scalarRounds := make([]int, len(seeds))
	se := radio.NewEngineMulti(g, scalar.Sources, radio.StrictInformed)
	for i, seed := range seeds {
		se.Attach(&scalarWant[i])
		scalarRounds[i] = broadcastTime(se, scalar.Protocol, scalar.MaxRounds, xrand.New(seed))
	}

	for _, tc := range []struct {
		name    string
		req     *exec.Request
		backend exec.Backend
		rounds  []int
		want    []trace.Counters
	}{
		{"lanes", lane, exec.BackendLanes, laneRounds, laneWant},
		{"scalar", scalar, exec.BackendScalar, scalarRounds, scalarWant},
	} {
		plain := make([]int, len(seeds))
		if _, err := exec.New().RunSeeds(context.Background(), tc.req, seeds, plain); err != nil {
			t.Fatal(err)
		}
		x := exec.New()
		runs := map[string]func(obs []trace.Observer, out []int) error{
			"executor": func(obs []trace.Observer, out []int) error {
				backend, err := x.RunSeedsObserved(context.Background(), tc.req, seeds, obs, out)
				if backend != tc.backend {
					t.Errorf("%s: backend %v, want %v", tc.name, backend, tc.backend)
				}
				return err
			},
			"session": func(obs []trace.Observer, out []int) error {
				return x.Open(tc.req).RunSeedsObserved(context.Background(), seeds, obs, out)
			},
		}
		for via, run := range runs {
			got, obs := countersFor(len(seeds))
			out := make([]int, len(seeds))
			if err := run(obs, out); err != nil {
				t.Fatalf("%s via %s: %v", tc.name, via, err)
			}
			for i := range seeds {
				if out[i] != tc.rounds[i] || out[i] != plain[i] {
					t.Fatalf("%s via %s: trial %d took %d rounds, direct %d, unobserved %d", tc.name, via, i, out[i], tc.rounds[i], plain[i])
				}
				if got[i] != tc.want[i] {
					t.Fatalf("%s via %s: trial %d observed %+v, direct %+v", tc.name, via, i, got[i], tc.want[i])
				}
			}
		}
	}
}

// TestRunSeedsRefusesRequestObserver: Request.Observer is a single
// trial's observer. A batch that carries one, without per-trial
// observers, used to run with it silently detached; now it is refused,
// by the executor on either backend and by a session.
func TestRunSeedsRefusesRequestObserver(t *testing.T) {
	g := testGraph(t, 16)
	seeds := sweep.Seeds(4, 1)
	out := make([]int, len(seeds))
	for _, forceScalar := range []bool{false, true} {
		req := protoReq(g)
		req.ForceScalar = forceScalar
		req.Observer = &trace.Counters{}
		if _, err := exec.New().RunSeeds(context.Background(), req, seeds, out); err == nil {
			t.Errorf("ForceScalar=%v: a batch with Request.Observer ran", forceScalar)
		}
		if err := exec.New().Open(req).RunSeeds(context.Background(), seeds, out); err == nil {
			t.Errorf("ForceScalar=%v: a session batch with only Request.Observer ran", forceScalar)
		}
	}
	if _, err := exec.New().RunSeedsObserved(context.Background(), protoReq(g), seeds, make([]trace.Observer, 3), out); err == nil {
		t.Error("a batch with fewer observers than seeds ran")
	}
}

// TestLanePoolCounters: a lane batch checks one engine per worker out of
// the per-graph pool, so the first 128-seed call misses once per worker
// and the second hits as often, with identical results. Forget drops
// the lane engines too.
func TestLanePoolCounters(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 12)
	req := protoReq(g)
	seeds := sweep.Seeds(2*exec.Width, 3)
	workers := int64(min(runtime.GOMAXPROCS(0), 2))

	var first []int
	for call := 1; call <= 2; call++ {
		got := make([]int, len(seeds))
		if _, err := x.RunSeeds(context.Background(), req, seeds, got); err != nil {
			t.Fatal(err)
		}
		st := x.Snapshot().Lanes
		if st.PoolMisses != workers || st.PoolHits != workers*int64(call-1) {
			t.Fatalf("after call %d: lane pool misses/hits = %d/%d, want %d/%d",
				call, st.PoolMisses, st.PoolHits, workers, workers*int64(call-1))
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: pooled engines gave %d, fresh ones %d", i, got[i], first[i])
			}
		}
	}

	x.Forget(g)
	if _, ok := x.IdleLanes(g); ok || x.LaneBytes() != 0 {
		t.Fatalf("Forget left g pooled (lane bytes %d)", x.LaneBytes())
	}
	if _, err := x.RunSeeds(context.Background(), req, seeds, make([]int, len(seeds))); err != nil {
		t.Fatal(err)
	}
	if st := x.Snapshot().Lanes; st.PoolMisses != 2*workers {
		t.Errorf("after Forget: lane pool misses = %d, want %d", st.PoolMisses, 2*workers)
	}
}

// TestLanePoolConcurrent: concurrent batches on one graph each get their
// own engines (the race detector and the bit-identical results catch any
// sharing), and the pool keeps at most GOMAXPROCS distinct engines.
func TestLanePoolConcurrent(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 13)
	req := protoReq(g)
	seeds := sweep.Seeds(2*exec.Width, 29)
	plan, _ := lanes.NewPlan(req.Protocol, req.MaxRounds)
	want := make([]int, len(seeds))
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 0, 0, want); err != nil {
		t.Fatal(err)
	}

	const callers, calls = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				got := make([]int, len(seeds))
				if _, err := x.RunSeeds(context.Background(), req, seeds, got); err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("trial %d: concurrent batch %d, direct lanes %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	idle, _ := x.IdleLanes(g)
	if len(idle) == 0 || len(idle) > runtime.GOMAXPROCS(0) {
		t.Errorf("%d idle lane engines for one graph, want 1..GOMAXPROCS", len(idle))
	}
	seen := make(map[*lanes.Engine]bool)
	for _, e := range idle {
		if seen[e] {
			t.Fatal("the pool holds one lane engine twice")
		}
		seen[e] = true
	}
	st := x.Snapshot().Lanes
	if want := int64(callers * calls * min(runtime.GOMAXPROCS(0), 2)); st.PoolHits+st.PoolMisses != want {
		t.Errorf("lane checkouts = %d, want %d", st.PoolHits+st.PoolMisses, want)
	}
}

// TestLanePoolBudget: the idle lane engines of all graphs share one byte
// budget. Going over it evicts the least-recently-used graph's engines
// and drops its entry; an engine bigger than the whole budget is never
// pooled. One 64-seed block runs on a single engine, so footprints
// repeat exactly on a structurally identical graph.
func TestLanePoolBudget(t *testing.T) {
	seeds := sweep.Seeds(exec.Width, 41)
	run := func(x *exec.Executor, g *graph.Graph) {
		t.Helper()
		if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, make([]int, len(seeds))); err != nil {
			t.Fatal(err)
		}
	}

	x := exec.New()
	g1, g2 := testGraph(t, 20), testGraph(t, 21)
	run(x, g1)
	fp1 := x.LaneBytes()
	run(x, g2)
	budget := x.LaneBytes()
	x.SetLaneBudget(budget) // exactly full
	g3 := testGraph(t, 20)  // g1's twin: the same footprint, another pointer
	run(x, g3)
	if _, ok := x.IdleLanes(g1); ok {
		t.Error("the least-recently-used graph kept its pool entry over budget")
	}
	for _, g := range []*graph.Graph{g2, g3} {
		if idle, _ := x.IdleLanes(g); len(idle) != 1 {
			t.Errorf("graph kept %d idle lane engines, want 1", len(idle))
		}
	}
	if got := x.LaneBytes(); got > budget {
		t.Errorf("idle lane bytes %d exceed the budget %d", got, budget)
	}

	small := exec.New()
	small.SetLaneBudget(fp1 - 1)
	run(small, g1)
	run(small, g1)
	if _, ok := small.IdleLanes(g1); ok || small.LaneBytes() != 0 {
		t.Errorf("an engine over the whole budget was pooled (%d bytes idle)", small.LaneBytes())
	}
	if st := small.Snapshot().Lanes; st.PoolHits != 0 || st.PoolMisses != 2 {
		t.Errorf("lane pool hits/misses = %d/%d, want 0/2", st.PoolHits, st.PoolMisses)
	}
}

// TestLaneRunSeedsAllocs gates the exec layer's allocation: a warm lane
// RunSeeds re-aims a pooled engine instead of building one, so a
// 64-seed call at n=300 allocates a few hundred bytes. A fresh engine
// there costs about 300 KiB.
func TestLaneRunSeedsAllocs(t *testing.T) {
	const calls, limit = 10, 64 << 10
	x := exec.New()
	g := testGraph(t, 14)
	req := protoReq(g)
	seeds := sweep.Seeds(exec.Width, 5)
	out := make([]int, len(seeds))
	for i := 0; i < 2; i++ { // warm: build, then settle buffer growth
		if _, err := x.RunSeeds(context.Background(), req, seeds, out); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := x.RunSeeds(context.Background(), req, seeds, out); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > limit {
		t.Errorf("warm lane RunSeeds allocates %d B per call, limit %d", perCall, limit)
	}
}

// TestCancelMidRun: a canceled context stops every dispatch path with
// an error wrapping radio.ErrCanceled.
func TestCancelMidRun(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := x.Run(ctx, protoReq(g), xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Run under canceled ctx: err = %v, want ErrCanceled", err)
	}
	if _, err := x.Time(ctx, protoReq(g), xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Time under canceled ctx: err = %v, want ErrCanceled", err)
	}
	seeds := sweep.Seeds(64, 1)
	out := make([]int, len(seeds))
	if _, err := x.RunSeeds(ctx, protoReq(g), seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("lane RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
	scalarReq := protoReq(g)
	scalarReq.ForceScalar = true
	if _, err := x.RunSeeds(ctx, scalarReq, seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("scalar RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
	sess := x.Open(protoReq(g))
	if _, err := sess.Time(ctx, xrand.New(1)); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Session.Time under canceled ctx: err = %v, want ErrCanceled", err)
	}
	if err := sess.RunSeeds(ctx, seeds, out); !errors.Is(err, radio.ErrCanceled) {
		t.Errorf("Session.RunSeeds under canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestSessionTime: session trials reuse one engine and stay
// bit-identical to fresh-engine trials of the same rng streams.
func TestSessionTime(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 7)
	req := protoReq(g)
	sess := x.Open(req)
	for trial := 0; trial < 5; trial++ {
		seed := uint64(trial + 1)
		got, err := sess.Time(context.Background(), xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
		if want := broadcastTime(e, req.Protocol, req.MaxRounds, xrand.New(seed)); got != want {
			t.Fatalf("trial %d: session %d vs fresh engine %d", trial, got, want)
		}
	}
}

// TestSessionRunSeeds: session batches run the lazily built lane engine
// and match the one-shot lane dispatch for the same seeds, across
// multiple blocks.
func TestSessionRunSeeds(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 8)
	req := protoReq(g)
	sess := x.Open(req)
	seeds := sweep.Seeds(3*exec.Width/2, 17) // forces >1 lane block
	got := make([]int, len(seeds))
	if err := sess.RunSeeds(context.Background(), seeds, got); err != nil {
		t.Fatal(err)
	}
	if st := x.Snapshot(); st.Lanes.Runs != 1 || st.Scalar.Fallbacks != 0 {
		t.Fatalf("session batch ran %d lane dispatches and %d scalar fallbacks, want 1 and 0", st.Lanes.Runs, st.Scalar.Fallbacks)
	}
	want := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), protoReq(g), seeds, want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: session %d vs one-shot %d (lane purity violated)", i, got[i], want[i])
		}
	}
}

// TestSessionScalarFallback: a session whose protocol is not
// lane-capable serves RunSeeds from its scalar engine, identical to
// per-seed Time dispatch.
func TestSessionScalarFallback(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 9)
	req := protoReq(g)
	req.Protocol = &protocols.RoundRobin{N: g.N()}
	req.MaxRounds = 4 * g.N()
	sess := x.Open(req)
	seeds := sweep.Seeds(7, 23)
	got := make([]int, len(seeds))
	if err := sess.RunSeeds(context.Background(), seeds, got); err != nil {
		t.Fatal(err)
	}
	if st := x.Snapshot(); st.Lanes.Runs != 0 || st.Scalar.Fallbacks != 1 {
		t.Fatalf("session batch ran %d lane dispatches and %d scalar fallbacks, want 0 and 1", st.Lanes.Runs, st.Scalar.Fallbacks)
	}
	ref := x.Open(req)
	for i, seed := range seeds {
		want, err := ref.Time(context.Background(), xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("trial %d: batch fallback %d vs per-trial %d", i, got[i], want)
		}
	}
	if st := x.Snapshot(); st.Scalar.Fallbacks != 1 {
		t.Errorf("scalar fallbacks = %d, want 1", st.Scalar.Fallbacks)
	}
}

// TestEnginePool: acquire/release round-trips hit the per-graph pool,
// Forget and pointer identity keep rebuilt graphs off stale engines,
// and the counters record it all.
func TestEnginePool(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 10)

	e1 := x.AcquireEngine(g)
	x.ReleaseEngine(e1)
	e2 := x.AcquireEngine(g)
	if e1 != e2 {
		t.Error("second acquire must reuse the released engine")
	}
	x.ReleaseEngine(e2)

	// A structurally identical rebuild is a different pointer: miss.
	g2 := testGraph(t, 10)
	if got := x.AcquireEngine(g2); got == e1 {
		t.Error("rebuilt graph must not receive the old graph's engine")
	}

	x.Forget(g)
	if got := x.AcquireEngine(g); got == e1 {
		t.Error("acquire after Forget must build fresh")
	}

	st := x.Snapshot()
	if st.Scalar.PoolHits != 1 {
		t.Errorf("pool_hits = %d, want 1", st.Scalar.PoolHits)
	}
	if st.Scalar.PoolMisses != 3 {
		t.Errorf("pool_misses = %d, want 3", st.Scalar.PoolMisses)
	}
}

// TestRunPooled: a Pool-flagged run checks an engine out and back in,
// and a pooled rerun of the same request is bit-identical to the
// fresh-engine first run (SetSources fully resets).
func TestRunPooled(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 11)
	req := protoReq(g)
	req.Pool = true
	var rounds [2]int
	for i := range rounds {
		res, err := x.Run(context.Background(), req, xrand.New(42))
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = res.Rounds
	}
	if rounds[0] != rounds[1] {
		t.Errorf("pooled rerun diverged: %d vs %d rounds", rounds[0], rounds[1])
	}
	st := x.Snapshot()
	if st.Scalar.PoolMisses != 1 || st.Scalar.PoolHits != 1 {
		t.Errorf("pool counters = %+v, want one miss then one hit", st.Scalar)
	}
}

package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/exec"
)

// Engine-pooling acceptance tests: repeated requests against one cached
// graph reuse one simulation engine through the execution layer's
// per-graph pool (exec pool hits in /metrics), eviction and rebuilds
// never hand out engines for stale graph pointers, and a steady-state
// request allocates far less than the O(n) engine it no longer builds.
// The pool counters live on the process-wide executor, so assertions
// compare snapshot deltas, not absolutes.

func poolReq(seed uint64) *RunRequest {
	return &RunRequest{Generator: "gnp-connected", N: 2000, D: 10, GraphSeed: 1, Algo: "distributed", Seed: seed}
}

func TestEnginePoolReuse(t *testing.T) {
	s := NewServer(Config{})
	defer s.Shutdown(0)
	before := exec.Snapshot()
	for i := 0; i < 5; i++ {
		req := poolReq(uint64(i + 1))
		if err := req.validate(&s.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := s.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if sim.engine == nil {
			t.Fatal("protocol request must check out a pooled engine")
		}
		res, err := sim.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("broadcast must complete")
		}
	}
	after := exec.Snapshot()
	if misses := after.Scalar.PoolMisses - before.Scalar.PoolMisses; misses != 1 {
		t.Errorf("pool_misses delta = %d, want 1 (one build, then reuse)", misses)
	}
	if hits := after.Scalar.PoolHits - before.Scalar.PoolHits; hits != 4 {
		t.Errorf("pool_hits delta = %d, want 4", hits)
	}
}

// TestEnginePoolCentralized: a centralized request replays its schedule
// on a pooled engine too — checked out of the per-graph pool and back in,
// so repeated replays on one graph build a single engine — and the
// pooled replay matches a fresh one.
func TestEnginePoolCentralized(t *testing.T) {
	s := NewServer(Config{})
	defer s.Shutdown(0)
	before := exec.Snapshot()
	var rounds [3]int
	for i := range rounds {
		req := poolReq(7)
		req.Algo = "centralized"
		if err := req.validate(&s.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := s.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if sim.engine == nil {
			t.Fatal("centralized request must check out a pooled engine")
		}
		res, err := sim.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("schedule replay must complete")
		}
		rounds[i] = res.Rounds
	}
	after := exec.Snapshot()
	if misses := after.Scalar.PoolMisses - before.Scalar.PoolMisses; misses != 1 {
		t.Errorf("pool_misses delta = %d, want 1 (one build, then reuse)", misses)
	}
	if hits := after.Scalar.PoolHits - before.Scalar.PoolHits; hits != 2 {
		t.Errorf("pool_hits delta = %d, want 2: every replay returns its engine", hits)
	}
	if runs := after.Schedule.Runs - before.Schedule.Runs; runs != 3 {
		t.Errorf("schedule runs delta = %d, want 3", runs)
	}
	if rounds[1] != rounds[0] || rounds[2] != rounds[0] {
		t.Errorf("pooled replays diverged: %v", rounds)
	}
}

// TestEnginePoolSameResult: a pooled-engine rerun of the same request is
// bit-identical to the fresh-engine first run — SetSources fully resets
// the engine.
func TestEnginePoolSameResult(t *testing.T) {
	s := NewServer(Config{})
	defer s.Shutdown(0)
	var rounds [2]int
	for i := range rounds {
		req := poolReq(42)
		if err := req.validate(&s.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := s.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = res.Rounds
	}
	if rounds[0] != rounds[1] {
		t.Errorf("pooled rerun diverged: %d vs %d rounds", rounds[0], rounds[1])
	}
}

// TestEnginePoolEviction: once the graph is evicted from the LRU, its
// pooled engine must not be handed out for the rebuilt (different
// pointer) instance.
func TestEnginePoolEviction(t *testing.T) {
	s := NewServer(Config{CacheEntries: 1})
	defer s.Shutdown(0)
	before := exec.Snapshot()
	run := func(req *RunRequest) {
		t.Helper()
		if err := req.validate(&s.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := s.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	a := poolReq(1)
	run(a)
	b := poolReq(1)
	b.GraphSeed = 2 // different graph: evicts a's entry from the size-1 LRU
	run(b)
	run(poolReq(2)) // a's graph rebuilt at a new pointer
	after := exec.Snapshot()
	if hits := after.Scalar.PoolHits - before.Scalar.PoolHits; hits != 0 {
		t.Errorf("pool_hits delta = %d, want 0: every request hit a fresh or rebuilt graph", hits)
	}
	if misses := after.Scalar.PoolMisses - before.Scalar.PoolMisses; misses != 3 {
		t.Errorf("pool_misses delta = %d, want 3", misses)
	}
}

func TestMetricsReportEnginePool(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := exec.Snapshot()
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 500, D: 10, GraphSeed: 1, Seed: uint64(i + 1)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[Metrics](t, resp)
	if misses := m.Exec.Scalar.PoolMisses - before.Scalar.PoolMisses; misses < 1 {
		t.Error("metrics must report at least one engine pool miss")
	}
	if hits := m.Exec.Scalar.PoolHits - before.Scalar.PoolHits; hits < 2 {
		t.Errorf("pool_hits delta = %d, want >= 2 after 3 same-graph runs", hits)
	}
	if runs := m.Exec.Scalar.Runs - before.Scalar.Runs; runs < 3 {
		t.Errorf("scalar runs delta = %d, want >= 3", runs)
	}
}

// TestRunSteadyStateAllocs: with the graph cached and an engine pooled,
// a simulation request's allocations must stay far below the O(n)
// informed/eligible state a fresh engine would cost (n=50000 nodes is
// several hundred KiB of engine; the steady-state path should stay under
// a small fixed budget).
func TestRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	s := NewServer(Config{})
	defer s.Shutdown(0)
	run := func(seed uint64) {
		req := poolReq(seed)
		req.N = 50000
		if err := req.validate(&s.cfg); err != nil {
			t.Fatal(err)
		}
		sim, err := s.prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm: builds the graph and the engine
	run(2) // second warm run settles any lazily grown engine scratch
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const trials = 5
	for i := 0; i < trials; i++ {
		run(uint64(i + 3))
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / trials
	// A fresh n=50000 engine allocates > 400 KiB (informed, informedAt,
	// hits, eligible lists). The pooled steady state is a handful of
	// option closures and small slices.
	if perRun > 64*1024 {
		t.Errorf("steady-state request allocates %d B, want <= 64 KiB (engine not reused?)", perRun)
	}
}

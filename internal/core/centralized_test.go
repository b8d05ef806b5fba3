package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// mustConnected draws a connected G(n,p) or fails the test.
func mustConnected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Fatalf("no connected G(%d, d=%v) sample", n, d)
	}
	return g
}

func TestCentralizedScheduleCompletesOnGnp(t *testing.T) {
	for _, tc := range []struct {
		n    int
		d    float64
		seed uint64
	}{
		{500, 14, 1},
		{2000, 16, 2},
		{2000, 60, 3},
		{5000, 18, 4},
	} {
		g := mustConnected(t, tc.n, tc.d, tc.seed)
		sched, trace, err := BuildCentralizedSchedule(g, 0, tc.d, DefaultCentralizedConfig(tc.seed))
		if err != nil {
			t.Fatalf("n=%d d=%v: %v", tc.n, tc.d, err)
		}
		res, err := replay(g, 0, sched)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		if !res.Completed {
			t.Fatalf("n=%d d=%v: replay incomplete %d/%d (%s)", tc.n, tc.d, res.Informed, tc.n, trace)
		}
		if res.Rounds != sched.Len() && res.Rounds > sched.Len() {
			t.Fatalf("replay rounds %d > schedule %d", res.Rounds, sched.Len())
		}
		// The schedule must respect the Theorem 5 shape: within a modest
		// constant of ln n/ln d + ln d.
		bound := CentralizedBound(tc.n, tc.d)
		if float64(sched.Len()) > 12*bound {
			t.Fatalf("n=%d d=%v: schedule %d rounds, %vx the bound %v (%s)",
				tc.n, tc.d, sched.Len(), float64(sched.Len())/bound, bound, trace)
		}
	}
}

func TestCentralizedScheduleDeterministicPerSeed(t *testing.T) {
	g := mustConnected(t, 1000, 15, 7)
	s1, _, err := BuildCentralizedSchedule(g, 0, 15, DefaultCentralizedConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := BuildCentralizedSchedule(g, 0, 15, DefaultCentralizedConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Len() != s2.Len() {
		t.Fatalf("same seed, different lengths: %d vs %d", s1.Len(), s2.Len())
	}
	for r := range s1.Sets {
		if len(s1.Sets[r]) != len(s2.Sets[r]) {
			t.Fatalf("round %d differs", r)
		}
		for i := range s1.Sets[r] {
			if s1.Sets[r][i] != s2.Sets[r][i] {
				t.Fatalf("round %d differs at %d", r, i)
			}
		}
	}
}

func TestCentralizedScheduleStrictValidity(t *testing.T) {
	// Every transmitter must be informed when it transmits; StrictInformed
	// replay already enforces this, so a nil error is the assertion.
	g := mustConnected(t, 1500, 20, 9)
	sched, _, err := BuildCentralizedSchedule(g, 3, 20, DefaultCentralizedConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay(g, 3, sched); err != nil {
		t.Fatalf("schedule uses uninformed transmitter: %v", err)
	}
}

func TestCentralizedTraceAccounting(t *testing.T) {
	g := mustConnected(t, 1000, 15, 11)
	sched, trace, err := BuildCentralizedSchedule(g, 0, 15, DefaultCentralizedConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Total() != sched.Len() {
		t.Fatalf("trace total %d != schedule length %d (%s)", trace.Total(), sched.Len(), trace)
	}
	if trace.DStar < 0 || trace.DStar >= trace.Layers {
		t.Fatalf("bad D* in trace: %s", trace)
	}
}

func TestCentralizedOnDenseGraph(t *testing.T) {
	// p constant: diameter 2, schedule should be O(ln d) = O(ln n).
	const n = 800
	g := gen.Gnp(n, 0.5, xrand.New(13))
	if !graph.IsConnected(g) {
		t.Fatal("G(800, 1/2) disconnected?!")
	}
	sched, trace, err := BuildCentralizedSchedule(g, 0, 0.5*n, DefaultCentralizedConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("dense replay failed: %v %+v (%s)", err, res.Informed, trace)
	}
	if float64(sched.Len()) > 10*math.Log(n) {
		t.Fatalf("dense schedule too long: %d rounds (%s)", sched.Len(), trace)
	}
}

func TestCentralizedOnPath(t *testing.T) {
	// Degenerate topology far from G(n,p): must still complete, bounded by
	// O(n) rounds.
	g := gen.Path(60)
	sched, _, err := BuildCentralizedSchedule(g, 0, 2, DefaultCentralizedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("path schedule failed: %v, informed %d", err, res.Informed)
	}
}

func TestCentralizedOnStarAndComplete(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"star":     gen.Star(50),
		"complete": gen.Complete(40),
	} {
		sched, _, err := BuildCentralizedSchedule(g, 0, float64(g.Degrees().Mean), DefaultCentralizedConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := replay(g, 0, sched)
		if err != nil || !res.Completed {
			t.Fatalf("%s failed: %v informed=%d", name, err, res.Informed)
		}
	}
}

func TestCentralizedDisconnectedError(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if _, _, err := BuildCentralizedSchedule(g, 0, 2, DefaultCentralizedConfig(1)); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestCentralizedEmptyGraphError(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if _, _, err := BuildCentralizedSchedule(g, 0, 2, DefaultCentralizedConfig(1)); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestCentralizedSingleVertex(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	sched, _, err := BuildCentralizedSchedule(g, 0, 2, DefaultCentralizedConfig(1))
	if err != nil {
		t.Fatalf("single vertex: %v", err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("single-vertex broadcast: %v %+v", err, res)
	}
}

func TestCentralizedAblationNoCoverFinish(t *testing.T) {
	// Without the cover finish the schedule still completes (random
	// selective rounds eventually hit everything) but is typically longer.
	g := mustConnected(t, 1500, 15, 17)
	cfg := DefaultCentralizedConfig(17)
	cfg.CoverFinish = false
	sched, _, err := BuildCentralizedSchedule(g, 0, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("no-cover-finish schedule failed: %v informed=%d", err, res.Informed)
	}
}

func TestCentralizedAblationNonDisjoint(t *testing.T) {
	g := mustConnected(t, 1500, 15, 19)
	cfg := DefaultCentralizedConfig(19)
	cfg.DisjointSelectiveSets = false
	sched, _, err := BuildCentralizedSchedule(g, 0, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("non-disjoint schedule failed: %v informed=%d", err, res.Informed)
	}
}

func TestCentralizedScalesLogarithmically(t *testing.T) {
	// Doubling n four times must not double the schedule length when the
	// degree tracks 2 ln n — growth should be ~ln n/ln d + ln d, i.e. slow.
	lengths := make(map[int]int)
	for _, n := range []int{1000, 4000, 16000} {
		d := 2 * math.Log(float64(n))
		g := mustConnected(t, n, d, uint64(n))
		sched, _, err := BuildCentralizedSchedule(g, 0, d, DefaultCentralizedConfig(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		lengths[n] = sched.Len()
	}
	if lengths[16000] > 3*lengths[1000] {
		t.Fatalf("schedule grows too fast: %v", lengths)
	}
}

func TestRoundRobinSchedule(t *testing.T) {
	g := mustConnected(t, 300, 10, 23)
	s := RoundRobinSchedule(g, 0)
	res, err := replay(g, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("round-robin incomplete: %d/%d", res.Informed, 300)
	}
	if s.Len() != 300 {
		t.Fatalf("round-robin length %d, want n", s.Len())
	}
}

func TestRoundRobinOnPath(t *testing.T) {
	g := gen.Path(20)
	s := RoundRobinSchedule(g, 0)
	res, err := replay(g, 0, s)
	if err != nil || !res.Completed {
		t.Fatalf("round-robin on path: %v %+v", err, res.Informed)
	}
}

func TestBounds(t *testing.T) {
	if b := CentralizedBound(1000, 10); math.Abs(b-(math.Log(1000)/math.Log(10)+math.Log(10))) > 1e-12 {
		t.Fatalf("CentralizedBound = %v", b)
	}
	if !math.IsInf(CentralizedBound(1, 10), 1) || !math.IsInf(CentralizedBound(100, 1), 1) {
		t.Fatal("degenerate CentralizedBound not +Inf")
	}
	if b := DistributedBound(1000); math.Abs(b-math.Log(1000)) > 1e-12 {
		t.Fatalf("DistributedBound = %v", b)
	}
	if DistributedBound(1) != 1 {
		t.Fatal("DistributedBound(1) != 1")
	}
	if b := DenseBound(1000, 0.5); math.Abs(b-math.Log(1000)/math.Log(2)) > 1e-12 {
		t.Fatalf("DenseBound = %v", b)
	}
	if !math.IsInf(DenseBound(1000, 0), 1) {
		t.Fatal("DenseBound f=0 not +Inf")
	}
}

func TestOptimalDegree(t *testing.T) {
	n := 100000
	dOpt := OptimalDegree(n)
	// The bound at d* must not exceed the bound at d*/4 or 4d*.
	at := func(d float64) float64 { return CentralizedBound(n, d) }
	if at(dOpt) > at(dOpt/4)+1e-9 || at(dOpt) > at(4*dOpt)+1e-9 {
		t.Fatalf("OptimalDegree %v is not a local minimum: %v %v %v",
			dOpt, at(dOpt/4), at(dOpt), at(4*dOpt))
	}
	if OptimalDegree(2) != 2 {
		t.Fatal("OptimalDegree(2) != 2")
	}
}

// BenchmarkBuildCentralizedSchedule times fresh builds at n = 10⁴, and
// fresh and reused builds (one Scratch and one engine) on the fixed
// workload, a connected G(10⁵, 25/n).
func BenchmarkBuildCentralizedSchedule(b *testing.B) {
	const n = 10000
	d := 2 * math.Log(n)
	g := mustConnected(b, n, d, 1)
	b.Run("n=1e4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := BuildCentralizedSchedule(g, 0, d, DefaultCentralizedConfig(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	const fixedN, fixedD = 100000, 25
	fixed := mustConnected(b, fixedN, fixedD, 1)
	b.Run("n=1e5/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := BuildCentralizedSchedule(fixed, 0, fixedD, DefaultCentralizedConfig(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("n=1e5/reused", func(b *testing.B) {
		var s Scratch
		e := radio.NewEngine(fixed, 0, radio.StrictInformed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Build(e, 0, fixedD, DefaultCentralizedConfig(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestCentralizedTraceString(t *testing.T) {
	tr := CentralizedTrace{TreeRounds: 3, KickoffRounds: 1, SelectiveRounds: 9,
		CoverRounds: 2, BackwardRounds: 1, DStar: 3, Layers: 6}
	s := tr.String()
	for _, want := range []string{"tree=3", "kick=1", "selective=9", "cover=2",
		"backward=1", "D*=3", "layers=6", "total=16"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace string %q missing %q", s, want)
		}
	}
}

func TestCentralizedMaxRoundsExceeded(t *testing.T) {
	// An absurdly small round budget must produce an error, not a hang.
	g := mustConnected(t, 500, 12, 99)
	cfg := DefaultCentralizedConfig(99)
	cfg.MaxRounds = 1
	if _, _, err := BuildCentralizedSchedule(g, 0, 12, cfg); err == nil {
		t.Fatal("budget of 1 round accepted")
	}
}

func TestDeepestInformedFrontier(t *testing.T) {
	g := gen.Path(5)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Round([]int32{1}); err != nil {
		t.Fatal(err)
	}
	dist := graph.Distances(g, 0)
	frontier := deepestInformedFrontier(e, dist, nil)
	if len(frontier) != 1 || frontier[0] != 2 {
		t.Fatalf("frontier = %v, want [2]", frontier)
	}
}

func TestCentralizedZeroConfigDefaults(t *testing.T) {
	// A zero SelectiveC/Selectivity must fall back to sane defaults
	// rather than dividing by zero or looping.
	g := mustConnected(t, 600, 12, 101)
	cfg := CentralizedConfig{CoverFinish: true, DisjointSelectiveSets: true, Seed: 101}
	sched, _, err := BuildCentralizedSchedule(g, 0, 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("zero-config schedule failed: %v informed=%d", err, res.Informed)
	}
}

func TestCentralizedTinyDegreeClamped(t *testing.T) {
	// d < 2 is clamped; the builder must still work on a denser graph
	// described with a bogus degree hint.
	g := mustConnected(t, 400, 12, 103)
	sched, _, err := BuildCentralizedSchedule(g, 0, 0.5, DefaultCentralizedConfig(103))
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(g, 0, sched)
	if err != nil || !res.Completed {
		t.Fatalf("clamped-degree schedule failed: %v informed=%d", err, res.Informed)
	}
}

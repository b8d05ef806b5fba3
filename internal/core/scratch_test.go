package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
)

// checkSameBuild requires a build on s, run on e, to return what a fresh
// BuildCentralizedSchedule returns for the same input: the same sets, the
// same trace and the same error. It returns the scratch's schedule.
func checkSameBuild(t *testing.T, s *Scratch, e *radio.Engine, d float64, cfg CentralizedConfig) *radio.Schedule {
	t.Helper()
	g := e.Graph()
	want, wantTrace, wantErr := BuildCentralizedSchedule(g, 0, d, cfg)
	got, gotTrace, gotErr := s.Build(e, 0, d, cfg)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d cfg=%+v: error %v on the scratch, %v fresh", g.N(), cfg, gotErr, wantErr)
	}
	if gotTrace != wantTrace {
		t.Fatalf("n=%d cfg=%+v: trace %v on the scratch, %v fresh", g.N(), cfg, gotTrace, wantTrace)
	}
	if (got == nil) != (want == nil) || (got != nil && !reflect.DeepEqual(got.Sets, want.Sets)) {
		t.Fatalf("n=%d cfg=%+v: the scratch built a different schedule from a fresh build", g.N(), cfg)
	}
	return got
}

// TestScratchMatchesFresh builds on one Scratch over graphs whose n
// shrinks and grows, under every E12 ablation config and after every
// error path, and requires each build to equal a fresh one. A graph's
// builds share one engine.
func TestScratchMatchesFresh(t *testing.T) {
	var s Scratch
	seed := uint64(0)
	configs := func(d float64) []CentralizedConfig {
		seed++
		base := DefaultCentralizedConfig(seed)
		disjointOff, coverOff, sqrt, square := base, base, base, base
		disjointOff.DisjointSelectiveSets = false
		coverOff.CoverFinish = false
		sqrt.Selectivity = 1 / math.Sqrt(d)
		square.Selectivity = 1 / (d * d)
		return []CentralizedConfig{base, disjointOff, coverOff, sqrt, square}
	}
	for i, n := range []int{2000, 300, 2000, 10000} {
		const d = 12
		g := mustConnected(t, n, d, uint64(i+1))
		e := radio.NewEngine(g, 0, radio.StrictInformed)
		for _, cfg := range configs(d) {
			checkSameBuild(t, &s, e, d, cfg)
		}

		// The error paths: an empty graph, a disconnected one and a
		// budget of one round. A build after each must still match.
		if _, _, err := s.build(graph.NewBuilder(0).Build(), nil, 0, d, DefaultCentralizedConfig(1)); err == nil {
			t.Fatal("empty graph accepted")
		}
		checkSameBuild(t, &s, e, d, DefaultCentralizedConfig(seed))
		b := graph.NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(2, 3)
		checkSameBuild(t, &s, radio.NewEngine(b.Build(), 0, radio.StrictInformed), 2, DefaultCentralizedConfig(1))
		checkSameBuild(t, &s, e, d, DefaultCentralizedConfig(seed+1))
		short := DefaultCentralizedConfig(seed)
		short.MaxRounds = 1
		checkSameBuild(t, &s, e, d, short)
		sched := checkSameBuild(t, &s, e, d, DefaultCentralizedConfig(seed+2))

		// Every set is capped: appending to one leaves the next alone.
		want, _, _ := BuildCentralizedSchedule(g, 0, d, DefaultCentralizedConfig(seed+2))
		for k := 0; k+1 < len(sched.Sets); k++ {
			_ = append(sched.Sets[k], -1)
			if !reflect.DeepEqual(sched.Sets[k+1], want.Sets[k+1]) {
				t.Fatalf("n=%d: appending to set %d changed set %d", n, k, k+1)
			}
		}
	}
	// A one-vertex graph's only round is empty, and a non-nil empty set
	// on either path.
	one := checkSameBuild(t, &s, radio.NewEngine(graph.NewBuilder(1).Build(), 0, radio.StrictInformed), 2, DefaultCentralizedConfig(1))
	if len(one.Sets) != 1 || one.Sets[0] == nil {
		t.Fatalf("one-vertex schedule %#v, want one non-nil empty set", one.Sets)
	}
}

// TestScratchBuildDetachesObserver requires a build to run its rounds
// with the engine's observer detached, and to attach it again after.
func TestScratchBuildDetachesObserver(t *testing.T) {
	g := mustConnected(t, 500, 12, 3)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	var c trace.Counters
	e.Attach(&c)
	var s Scratch
	if _, _, err := s.Build(e, 0, 12, DefaultCentralizedConfig(3)); err != nil {
		t.Fatal(err)
	}
	if c != (trace.Counters{}) {
		t.Fatalf("the observer saw the build's rounds: %+v", c)
	}
	if e.Observer() != trace.Observer(&c) {
		t.Fatal("the build left the engine without its observer")
	}
}

// TestCoverEpochWrap builds across the wrap of the cover rounds' epoch,
// which runs on from build to build, after a build that left stamps of
// low epochs in mark. Every build must equal a fresh one, and the epoch
// must have wrapped. A short selective phase leaves the covers several
// rounds per build.
func TestCoverEpochWrap(t *testing.T) {
	const d = 12
	g := mustConnected(t, 2000, d, 5)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	cfg := func(seed uint64) CentralizedConfig {
		c := DefaultCentralizedConfig(seed)
		c.SelectiveC = 0.1
		return c
	}
	var s Scratch
	checkSameBuild(t, &s, e, d, cfg(1))
	if s.cover.epoch < 4 {
		t.Fatalf("the first build ran %d cover rounds, want at least 4", s.cover.epoch)
	}
	// The next build repeats the first, so its first cover round, the
	// first after the wrap, would find a stale stamp on every candidate.
	s.cover.epoch = math.MaxInt32
	for seed := uint64(1); seed <= 3; seed++ {
		checkSameBuild(t, &s, e, d, cfg(seed))
	}
	if s.cover.epoch >= math.MaxInt32 {
		t.Fatalf("the builds did not wrap the epoch (it is %d)", s.cover.epoch)
	}
}

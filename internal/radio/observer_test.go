package radio

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func connectedTestGraph(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	return g
}

// TestCountersMatchStats is the accounting-invariance acceptance check:
// over 1000 randomized trials (varying rng and source), an attached
// trace.Counters must agree exactly with Engine.Counters() and with the
// final Result, because both are fed the same per-round records; only
// the observer counts runs.
func TestCountersMatchStats(t *testing.T) {
	const n = 200
	const d = 8.0
	g := connectedTestGraph(t, n, d, 1)
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	e := NewEngine(g, 0, StrictInformed)
	var c trace.Counters
	e.Attach(&c)
	rng := xrand.New(99)
	for trial := 0; trial < 1000; trial++ {
		c.Reset()
		e.SetSources([]int32{int32(trial % n)})
		res := runOn(e, p, 300, rng.Derive(uint64(trial)+1))
		st := e.Counters()
		if st != res.Stats || st.Runs != 0 || st.Completed != 0 {
			t.Fatalf("trial %d: engine counters %+v, result stats %+v", trial, st, res.Stats)
		}
		if st.Runs, st.Completed = c.Runs, c.Completed; st != c {
			t.Fatalf("trial %d: observer counters %+v != engine counters %+v", trial, c, st)
		}
		if c.Rounds != res.Rounds || c.Informed != res.Informed {
			t.Fatalf("trial %d: observer (rounds=%d informed=%d) != result (rounds=%d informed=%d)",
				trial, c.Rounds, c.Informed, res.Rounds, res.Informed)
		}
		if c.Runs != 1 {
			t.Fatalf("trial %d: %d BeginRun notifications, want 1", trial, c.Runs)
		}
		if res.Completed && c.Completed != 1 {
			t.Fatalf("trial %d: completed run not counted", trial)
		}
		// The per-round quantities partition the node set.
		if got := c.Transmissions + c.Successes + c.Collisions + c.Silent; got != c.Rounds*n {
			t.Fatalf("trial %d: tx+ok+col+silent = %d, want rounds*n = %d", trial, got, c.Rounds*n)
		}
	}
}

// TestCountersMatchStatsSchedule is the same invariance over the schedule
// replay path.
func TestCountersMatchStatsSchedule(t *testing.T) {
	g := gen.Star(6)
	e := NewEngine(g, 0, StrictInformed)
	var c trace.Counters
	e.Attach(&c)
	s := &Schedule{Sets: [][]int32{{0}, {1, 2}, {3}}}
	res, err := replayOn(e, s)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Counters()
	if st.Runs, st.Completed = c.Runs, c.Completed; st != c {
		t.Fatalf("observer %+v != engine counters %+v", c, st)
	}
	if c.Informed != res.Informed {
		t.Fatalf("observer informed %d != result %d", c.Informed, res.Informed)
	}
	if c.Runs != 1 || c.Completed != 1 {
		t.Fatalf("runs=%d completed=%d, want 1/1", c.Runs, c.Completed)
	}
}

// TestObserverSurvivesReset: Reset clears the engine's counters but keeps the
// attached observer, so one observer aggregates across trials.
func TestObserverSurvivesReset(t *testing.T) {
	g := gen.Path(5)
	e := NewEngine(g, 0, StrictInformed)
	var c trace.Counters
	e.Attach(&c)
	for i := 0; i < 3; i++ {
		if _, err := replayOn(e, &Schedule{Sets: [][]int32{{0}, {1}, {2}, {3}}}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Runs != 3 || c.Completed != 3 {
		t.Fatalf("runs=%d completed=%d, want 3/3", c.Runs, c.Completed)
	}
	if c.Rounds != 12 {
		t.Fatalf("rounds=%d, want 12", c.Rounds)
	}
	if e.Counters().Rounds != 4 {
		t.Fatalf("engine counters rounds=%d, want 4 (last run only)", e.Counters().Rounds)
	}
}

// TestRecorderRoundRecords checks the per-round record fields on a graph
// where every outcome class (success, collision, silence) occurs.
func TestRecorderRoundRecords(t *testing.T) {
	// 0-1, 0-2, 1-3, 2-3: transmitting {1,2} collides at 3 and at 0.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	e := NewEngine(g, 0, StrictInformed)
	var rec trace.Recorder
	e.Attach(&rec)
	res, err := replayOn(e, &Schedule{Sets: [][]int32{{0}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("node 4 is isolated; broadcast cannot complete")
	}
	if !rec.Began || !rec.Ended {
		t.Fatalf("begin/end not delivered: %+v", rec)
	}
	if rec.Info.N != 5 || rec.Info.M != 4 || rec.Info.Sources != 1 || rec.Info.MaxRounds != 2 {
		t.Fatalf("run info %+v", rec.Info)
	}
	want := []trace.RoundRecord{
		// Round 1: 0 transmits; 1 and 2 receive cleanly; 3, 4 silent.
		{Round: 1, Transmitters: 1, Successes: 2, Collisions: 0, Silent: 2, NewlyInformed: 2, Informed: 3},
		// Round 2: 1 and 2 transmit; 0 and 3 both collide; 4 silent.
		{Round: 2, Transmitters: 2, Successes: 0, Collisions: 2, Silent: 1, NewlyInformed: 0, Informed: 3},
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("got %d records", len(rec.Records))
	}
	for i, w := range want {
		if rec.Records[i] != w {
			t.Fatalf("record %d = %+v, want %+v", i, rec.Records[i], w)
		}
	}
	if rec.Summary.Rounds != 2 || rec.Summary.Informed != 3 || rec.Summary.Completed {
		t.Fatalf("summary %+v", rec.Summary)
	}
}

// TestNilObserverAllocs is the benchmark guard in test form: the reuse
// fast path must stay allocation-free with no observer attached, and
// RunProtocolContext must not gain allocations from the observer layer (its
// only allocation is the Result's InformedAt copy).
func TestNilObserverAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	const n = 2000
	const d = 10.0
	g := connectedTestGraph(t, n, d, 3)
	e := NewEngine(g, 0, StrictInformed)
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	rng := xrand.New(5)
	if avg := testing.AllocsPerRun(20, func() {
		timeOn(e, p, 400, rng)
	}); avg != 0 {
		t.Fatalf("BroadcastTimeOnContext with nil observer: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		runOn(e, p, 400, rng)
	}); avg > 1 {
		t.Fatalf("RunProtocolContext with nil observer: %.1f allocs/op, want <=1 (InformedAt copy)", avg)
	}
}

// TestObservedRunBitIdentical: attaching an observer must not change the
// simulation (it consumes no randomness).
func TestObservedRunBitIdentical(t *testing.T) {
	const n = 400
	const d = 9.0
	g := connectedTestGraph(t, n, d, 7)
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	plain := runFresh(g, 0, p, 500, xrand.New(42))
	e := NewEngine(g, 0, StrictInformed)
	e.Attach(&trace.Recorder{})
	observed := runOn(e, p, 500, xrand.New(42))
	if plain.Rounds != observed.Rounds || plain.Informed != observed.Informed || plain.Stats != observed.Stats {
		t.Fatalf("observed run diverged: %+v vs %+v", observed, plain)
	}
	for i := range plain.InformedAt {
		if plain.InformedAt[i] != observed.InformedAt[i] {
			t.Fatalf("InformedAt[%d] differs", i)
		}
	}
}

// TestMultiSourceObserved covers an observed multi-source run.
func TestMultiSourceObserved(t *testing.T) {
	const n = 300
	const d = 8.0
	g := connectedTestGraph(t, n, d, 11)
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		return r.Bernoulli(1 / d)
	})
	var c trace.Counters
	e := NewEngineMulti(g, []int32{0, 5, 9}, StrictInformed)
	e.Attach(&c)
	res := runOn(e, p, 400, xrand.New(3))
	if c.Rounds != res.Rounds || c.Informed != res.Informed {
		t.Fatalf("counters (rounds=%d informed=%d) != result (%d, %d)", c.Rounds, c.Informed, res.Rounds, res.Informed)
	}
	plain := runOn(NewEngineMulti(g, []int32{0, 5, 9}, StrictInformed), p, 400, xrand.New(3))
	if plain.Rounds != res.Rounds || plain.Informed != res.Informed {
		t.Fatalf("observed multi run diverged from plain run")
	}
}

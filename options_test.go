package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
)

func testGraph(t testing.TB, n int, d float64, seed uint64) *Graph {
	t.Helper()
	g, ok := ConnectedGnpDegree(n, d, NewRand(seed))
	if !ok {
		t.Skip("no connected sample")
	}
	return g
}

// perNodeBroadcast is the per-node broadcast driven directly on a fresh
// engine, without Run: the reference the facade must reproduce.
func perNodeBroadcast(g *Graph, sources []int32, d float64, rng *Rand) Result {
	e := NewEngine(g, sources[0])
	e.SetSources(sources)
	res, _ := e.RunProtocolContext(context.Background(), perNodeProtocol(g.N(), d), MaxRounds(g.N()), rng)
	return res
}

// TestRunReproducesBroadcast is the facade acceptance check: the options
// entry point with a per-node protocol must reproduce the per-node
// broadcast driven directly on an engine bit-for-bit on the same seed
// (the paper's protocol itself takes the sampled fast path, covered by
// TestRunSampledFastPath).
func TestRunReproducesBroadcast(t *testing.T) {
	const n = 2000
	const d = 25.0
	g := testGraph(t, n, d, 1)
	for seed := uint64(1); seed <= 5; seed++ {
		want := perNodeBroadcast(g, []int32{0}, d, NewRand(seed))
		got, err := Run(g, 0, WithProtocol(perNodeProtocol(n, d)), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed || got.Rounds != want.Rounds ||
			got.Informed != want.Informed || got.Stats != want.Stats {
			t.Fatalf("seed %d: Run %+v != engine broadcast %+v", seed, got, want)
		}
		for i := range want.InformedAt {
			if got.InformedAt[i] != want.InformedAt[i] {
				t.Fatalf("seed %d: InformedAt[%d] = %d, want %d", seed, i, got.InformedAt[i], want.InformedAt[i])
			}
		}
	}
	// Default seed is 1.
	def, err := Run(g, 0, WithProtocol(perNodeProtocol(n, d)))
	if err != nil {
		t.Fatal(err)
	}
	want := perNodeBroadcast(g, []int32{0}, d, NewRand(1))
	if def.Rounds != want.Rounds || def.Stats != want.Stats {
		t.Fatalf("default-seed Run %+v != engine broadcast (seed 1) %+v", def, want)
	}
}

// TestRunSampledFastPath: plain Run takes the binomial-sampling fast path
// for the paper's protocol; the run must complete and agree with the
// per-node path on everything but the randomness stream.
func TestRunSampledFastPath(t *testing.T) {
	const n = 2000
	const d = 25.0
	g := testGraph(t, n, d, 1)
	var c Counters
	res, err := Run(g, 0, WithDegree(d), WithSeed(3), WithObserver(&c))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sampled run incomplete: %+v", res)
	}
	// Observer records have the same shape on both paths: the per-round
	// outcome classes partition the node set.
	if got := c.Transmissions + c.Successes + c.Collisions + c.Silent; got != c.Rounds*n {
		t.Fatalf("tx+ok+col+silent = %d, want rounds*n = %d", got, c.Rounds*n)
	}
	if c.Rounds != res.Rounds || c.Informed != res.Informed {
		t.Fatalf("counters (rounds=%d informed=%d) != result (%d, %d)", c.Rounds, c.Informed, res.Rounds, res.Informed)
	}
	// Same seed, same options, run again: the sampled path is
	// deterministic.
	again, err := Run(g, 0, WithDegree(d), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds != res.Rounds || again.Stats != res.Stats {
		t.Fatalf("sampled run not deterministic: %+v vs %+v", again, res)
	}
	for i := range res.InformedAt {
		if again.InformedAt[i] != res.InformedAt[i] {
			t.Fatalf("InformedAt[%d] differs between identical sampled runs", i)
		}
	}
}

// TestRunScheduleMatchesExecuteSchedule: the schedule path of Run is
// radio.ExecuteScheduleOnContext on a fresh engine.
func TestRunScheduleMatchesExecuteSchedule(t *testing.T) {
	const n = 1000
	const d = 16.0
	g := testGraph(t, n, d, 2)
	sched, err := BuildSchedule(g, 0, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := radio.ExecuteScheduleOnContext(context.Background(), NewEngine(g, 0), sched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, 0, WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.Rounds != want.Rounds || got.Stats != want.Stats {
		t.Fatalf("Run schedule %+v != ExecuteScheduleOnContext %+v", got, want)
	}
}

func TestRunOptionConflicts(t *testing.T) {
	g := GnpDegree(50, 6, NewRand(1))
	sched := &Schedule{Sets: [][]int32{{0}}}
	p := NewProtocol(50, 6)
	cases := []struct {
		name string
		opts []Option
	}{
		{"protocol+degree", []Option{WithProtocol(p), WithDegree(6)}},
		{"schedule+degree", []Option{WithSchedule(sched), WithDegree(6)}},
		{"schedule+protocol", []Option{WithSchedule(sched), WithProtocol(p)}},
		{"schedule+maxrounds", []Option{WithSchedule(sched), WithMaxRounds(5)}},
		{"rand+seed", []Option{WithRand(NewRand(1)), WithSeed(2)}},
		{"negative budget", []Option{WithMaxRounds(-1)}},
	}
	for _, c := range cases {
		if _, err := Run(g, 0, c.opts...); err == nil {
			t.Errorf("%s: conflicting options accepted", c.name)
		}
	}
}

func TestRunWithMaxRoundsZero(t *testing.T) {
	g := GnpDegree(50, 6, NewRand(1))
	res, err := Run(g, 0, WithMaxRounds(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Informed != 1 {
		t.Fatalf("zero-budget run executed rounds: %+v", res)
	}
}

// TestRunDefaultProtocolUsesMeanDegree: with no degree/protocol option the
// run still completes, sized by the graph's empirical mean degree.
func TestRunDefaultProtocolUsesMeanDegree(t *testing.T) {
	g := testGraph(t, 1000, 14, 4)
	res, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("default Run incomplete: %+v", res)
	}
	d := 2 * float64(g.M()) / float64(g.N())
	want, err := Run(g, 0, WithDegree(d))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != want.Rounds || res.Stats != want.Stats {
		t.Fatalf("default Run %+v != Run(mean degree) %+v", res, want)
	}
}

func TestRunWithObserver(t *testing.T) {
	const n = 1000
	const d = 12.0
	g := testGraph(t, n, d, 5)
	var c Counters
	var f FrontierProfile
	res, err := Run(g, 0, WithDegree(d), WithSeed(9), WithObserver(trace.Multi(&c, &f)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds != res.Rounds || c.Informed != res.Informed {
		t.Fatalf("counters (rounds=%d informed=%d) != result (%d informed=%d)",
			c.Rounds, c.Informed, res.Rounds, res.Informed)
	}
	if c.Successes != res.Stats.Deliveries || c.Collisions != res.Stats.Collisions {
		t.Fatalf("counters %+v != result stats %+v", c, res.Stats)
	}
	if f.Rounds() != res.Rounds || f.Cumulative[len(f.Cumulative)-1] != res.Informed {
		t.Fatalf("frontier profile inconsistent: %d rounds, final %d", f.Rounds(), f.Cumulative[len(f.Cumulative)-1])
	}
	// Observation must not perturb the run.
	plain, _ := Run(g, 0, WithDegree(d), WithSeed(9))
	if plain.Rounds != res.Rounds || plain.Stats != res.Stats {
		t.Fatalf("observed run diverged from unobserved: %+v vs %+v", res, plain)
	}
}

func TestRunWithSourcesMatchesBroadcastMulti(t *testing.T) {
	const n = 800
	const d = 10.0
	g := testGraph(t, n, d, 6)
	sources := []int32{0, 17, 23}
	want := perNodeBroadcast(g, sources, d, NewRand(8))
	got, err := Run(g, 0, WithSources(17, 23), WithProtocol(perNodeProtocol(n, d)), WithRand(NewRand(8)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Stats != want.Stats {
		t.Fatalf("Run multi %+v != engine multi-source broadcast %+v", got, want)
	}
}

func TestRunJSONLWriterEmitsValidRecords(t *testing.T) {
	g := testGraph(t, 500, 10, 7)
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	res, err := Run(g, 0, WithDegree(10), WithSeed(3), WithObserver(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != res.Rounds+2 {
		t.Fatalf("%d JSONL lines for %d rounds", len(lines), res.Rounds)
	}
	for i, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
	}
}

func TestBroadcastMultiObserver(t *testing.T) {
	g := testGraph(t, 400, 9, 10)
	var c Counters
	res, _ := Run(g, 0, WithSources(5), WithDegree(9), WithSeed(4), WithObserver(&c))
	if c.Rounds != res.Rounds || c.Informed != res.Informed {
		t.Fatalf("counters %+v != result %+v", c, res)
	}
}

// TestWithEngine: a run on a caller-supplied engine is field-for-field
// the fresh-engine run with the same options — for a protocol, a
// multi-source protocol and a schedule replay — however dirty the engine
// was, and an engine built on another graph is refused.
func TestWithEngine(t *testing.T) {
	const n = 600
	const d = 10.0
	g := testGraph(t, n, d, 11)
	sched, err := BuildSchedule(g, 0, d, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, 0)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"protocol", []Option{WithDegree(d), WithSeed(3)}},
		{"multi-source", []Option{WithSources(7, 400), WithProtocol(perNodeProtocol(n, d)), WithSeed(4)}},
		{"schedule", []Option{WithSchedule(sched)}},
		{"protocol-after-schedule", []Option{WithProtocol(NewProtocol(n, d)), WithMaxRounds(8), WithSeed(5)}},
	} {
		want, err := Run(g, 0, tc.opts...)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", tc.name, err)
		}
		var c Counters
		got, err := Run(g, 0, append(tc.opts, WithEngine(e), WithObserver(&c))...)
		if err != nil {
			t.Fatalf("%s: engine run: %v", tc.name, err)
		}
		if got.Completed != want.Completed || got.Rounds != want.Rounds || got.Informed != want.Informed ||
			got.N != want.N || got.Stats != want.Stats || len(got.InformedAt) != len(want.InformedAt) {
			t.Fatalf("%s: engine run %+v != fresh run %+v", tc.name, got.Stats, want.Stats)
		}
		for v := range want.InformedAt {
			if got.InformedAt[v] != want.InformedAt[v] {
				t.Fatalf("%s: InformedAt[%d] = %d, fresh %d", tc.name, v, got.InformedAt[v], want.InformedAt[v])
			}
		}
		if c.Runs != 1 || c.Rounds != got.Rounds {
			t.Fatalf("%s: observer saw %d runs of %d rounds, want 1 of %d", tc.name, c.Runs, c.Rounds, got.Rounds)
		}
	}

	other := testGraph(t, n, d, 12)
	for _, opts := range [][]Option{{WithDegree(d)}, {WithSchedule(sched)}} {
		if _, err := Run(other, 0, append(opts, WithEngine(e))...); !errors.Is(err, ErrConflictingOptions) {
			t.Fatalf("engine on another graph: err = %v, want ErrConflictingOptions", err)
		}
	}
}

// TestFacadeCrashAndBroadcast: Run on the survivor subgraph of a crash
// scenario informs every survivor reachable from the source.
func TestFacadeCrashAndBroadcast(t *testing.T) {
	rng := NewRand(2)
	const n = 1000
	d := 4 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	sc := faults.Crash(g, 0, 0.3, rng)
	if sc.SrcNew < 0 {
		t.Fatal("source crashed")
	}
	res, _ := Run(sc.Sub, sc.SrcNew, WithDegree(d*0.7), WithRand(rng))
	if res.Informed < sc.ReachableFromSource() {
		t.Fatalf("informed %d < reachable %d", res.Informed, sc.ReachableFromSource())
	}
}

func TestFacadeBroadcastMulti(t *testing.T) {
	rng := NewRand(3)
	const n = 800
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	res, _ := Run(g, 0, WithSources(int32(n/2), int32(n-1)), WithDegree(d), WithRand(rng))
	if !res.Completed {
		t.Fatalf("multi-source incomplete: %d/%d", res.Informed, n)
	}
}

// TestFacadeScheduleIO: a schedule built through the facade writes its
// header and one line per round, and replays to completion through Run.
func TestFacadeScheduleIO(t *testing.T) {
	rng := NewRand(5)
	const n = 400
	d := 2 * math.Log(n)
	g, ok := ConnectedGnpDegree(n, d, rng)
	if !ok {
		t.Skip("no connected sample")
	}
	sched, err := BuildSchedule(g, 0, d, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sched.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("schedule %d\n", sched.Len())
	if !strings.HasPrefix(buf.String(), header) || strings.Count(buf.String(), "\n") != sched.Len()+1 {
		t.Fatalf("written schedule does not start with %q over %d round lines", header, sched.Len())
	}
	res, err := Run(g, 0, WithSchedule(sched))
	if err != nil || !res.Completed {
		t.Fatalf("schedule invalid: %v informed=%d", err, res.Informed)
	}
}

// TestFacadeGridSchedule: Run replays the unit-disk grid schedule of
// internal/geo to completion without a collision.
func TestFacadeGridSchedule(t *testing.T) {
	rng := NewRand(8)
	// A small connected geometric field from the internal generator.
	const n = 300
	radius := math.Sqrt(4 * math.Log(n) / (math.Pi * n))
	var g *Graph
	var xs, ys []float64
	for attempt := 0; attempt < 20; attempt++ {
		gg, xxs, yys := gen.GeometricPoints(n, radius, rng)
		if graph.IsConnected(gg) {
			g, xs, ys = gg, xxs, yys
			break
		}
	}
	if g == nil {
		t.Skip("no connected field")
	}
	sched, err := geo.BuildGridSchedule(g, xs, ys, radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, WithSchedule(sched))
	if err != nil || !res.Completed {
		t.Fatalf("grid schedule: %v informed=%d", err, res.Informed)
	}
	if res.Stats.Collisions != 0 {
		t.Fatalf("collisions: %d", res.Stats.Collisions)
	}
}

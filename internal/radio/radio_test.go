package radio

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// Test shorthands over the package's runners, with a background context.

// runOn resets e and runs p on it.
func runOn(e *Engine, p Protocol, maxRounds int, rng *xrand.Rand) Result {
	e.Reset()
	res, _ := e.RunProtocolContext(context.Background(), p, maxRounds, rng)
	return res
}

// runFresh runs p on a fresh strict engine from src.
func runFresh(g *graph.Graph, src int32, p Protocol, maxRounds int, rng *xrand.Rand) Result {
	return runOn(NewEngine(g, src, StrictInformed), p, maxRounds, rng)
}

// timeOn resets e, runs p on it and returns the completion round.
func timeOn(e *Engine, p Protocol, maxRounds int, rng *xrand.Rand) int {
	r, _ := BroadcastTimeOnContext(context.Background(), e, p, maxRounds, rng)
	return r
}

// timeFresh is timeOn on a fresh strict engine from src.
func timeFresh(g *graph.Graph, src int32, p Protocol, maxRounds int, rng *xrand.Rand) int {
	return timeOn(NewEngine(g, src, StrictInformed), p, maxRounds, rng)
}

// replayOn resets e and replays s on it.
func replayOn(e *Engine, s *Schedule) (Result, error) {
	e.Reset()
	return ExecuteScheduleOnContext(context.Background(), e, s)
}

// replayFresh replays s on a fresh engine from src under policy.
func replayFresh(g *graph.Graph, src int32, s *Schedule, policy TransmitterPolicy) (Result, error) {
	return replayOn(NewEngine(g, src, policy), s)
}

// star builds a star with centre 0 and n-1 leaves.
func star(n int) *graph.Graph { return gen.Star(n) }

func TestSingleTransmitterInformsAllNeighbors(t *testing.T) {
	g := star(6)
	e := NewEngine(g, 0, StrictInformed)
	newly, err := e.Round([]int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 5 {
		t.Fatalf("centre transmission informed %d leaves, want 5", len(newly))
	}
	if !e.Done() {
		t.Fatal("star broadcast should complete in one round")
	}
	for v := int32(1); v < 6; v++ {
		if e.InformedAt(v) != 1 {
			t.Fatalf("leaf %d informedAt = %d", v, e.InformedAt(v))
		}
	}
}

func TestCollisionBlocksReception(t *testing.T) {
	// Path 1-0-2 plus 1-3, 2-3: if 1 and 2 both transmit, node 3
	// (adjacent to both) hears nothing, node 0 (adjacent to both) hears
	// nothing either.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()

	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err) // informs 1 and 2
	}
	if e.Informed(3) {
		t.Fatal("node 3 informed too early")
	}
	newly, err := e.Round([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatalf("collision at 3 should inform nobody, informed %v", newly)
	}
	if e.Counters().Collisions == 0 {
		t.Fatal("collision not counted")
	}
	// A single transmitter gets through.
	newly, err = e.Round([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != 3 {
		t.Fatalf("round 3 informed %v, want [3]", newly)
	}
}

func TestTransmitterDoesNotListen(t *testing.T) {
	// Triangle 0-1-2. After round 1 (source 0 transmits), 1 and 2 are
	// informed. Suppose only node 1 were informed and both 0 and... use a
	// custom scenario: path 0-1. Node 1 uninformed; if node 1 also
	// transmits (magic policy) while 0 transmits, node 1 must NOT receive.
	g := gen.Path(2)
	e := NewEngine(g, 0, MagicTransmitters)
	newly, err := e.Round([]int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatal("a transmitting node must not receive")
	}
	if e.Informed(1) {
		t.Fatal("node 1 marked informed while transmitting")
	}
}

func TestStrictPolicyRejectsUninformed(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, StrictInformed)
	_, err := e.Round([]int32{2})
	if !errors.Is(err, ErrUninformedTransmitter) {
		t.Fatalf("err = %v, want ErrUninformedTransmitter", err)
	}
}

func TestFilterPolicyDropsUninformed(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, FilterUninformed)
	newly, err := e.Round([]int32{0, 2}) // 2 is uninformed -> dropped
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != 1 {
		t.Fatalf("newly = %v, want [1]", newly)
	}
	if e.Counters().Transmissions != 1 {
		t.Fatalf("transmissions = %d, want 1", e.Counters().Transmissions)
	}
}

func TestMagicPolicyAllowsUninformed(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, MagicTransmitters)
	newly, err := e.Round([]int32{2}) // uninformed 2 transmits anyway
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != 1 {
		t.Fatalf("magic transmission informed %v, want [1]", newly)
	}
}

func TestDuplicateTransmittersCountOnce(t *testing.T) {
	g := star(4)
	e := NewEngine(g, 0, StrictInformed)
	newly, err := e.Round([]int32{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 3 {
		t.Fatalf("duplicates caused collision: newly = %v", newly)
	}
	if e.Counters().Transmissions != 1 {
		t.Fatalf("transmissions = %d, want 1", e.Counters().Transmissions)
	}
}

func TestOutOfRangeTransmitter(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{7}); err == nil {
		t.Fatal("out-of-range transmitter accepted")
	}
}

func TestPathBroadcastRoundByRound(t *testing.T) {
	const n = 10
	g := gen.Path(n)
	e := NewEngine(g, 0, StrictInformed)
	// On a path, transmitting the frontier each round moves information
	// one hop per round.
	for r := 1; r < n; r++ {
		if _, err := e.Round([]int32{int32(r - 1)}); err != nil {
			t.Fatal(err)
		}
		if !e.Informed(int32(r)) {
			t.Fatalf("node %d not informed at round %d", r, r)
		}
	}
	if !e.Done() {
		t.Fatal("path broadcast incomplete")
	}
	if e.RoundCount() != n-1 {
		t.Fatalf("rounds = %d, want %d", e.RoundCount(), n-1)
	}
}

func TestReset(t *testing.T) {
	g := star(5)
	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.InformedCount() != 1 || e.RoundCount() != 0 || e.Counters().Rounds != 0 {
		t.Fatal("Reset incomplete")
	}
	if !e.Informed(0) || e.Informed(1) {
		t.Fatal("Reset lost source or kept leaf informed")
	}
}

func TestExecuteSchedule(t *testing.T) {
	g := gen.Path(4)
	s := &Schedule{Sets: [][]int32{{0}, {1}, {2}}}
	res, err := replayFresh(g, 0, s, StrictInformed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 3 || res.Informed != 4 {
		t.Fatalf("result %+v", res)
	}
	for v, at := range res.InformedAt {
		if at != int32(v) {
			t.Fatalf("InformedAt[%d] = %d", v, at)
		}
	}
}

func TestExecuteScheduleStopsEarly(t *testing.T) {
	g := star(4)
	s := &Schedule{Sets: [][]int32{{0}, {1}, {2}, {3}}}
	res, err := replayFresh(g, 0, s, StrictInformed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("early stop failed: rounds = %d", res.Rounds)
	}
}

func TestExecuteScheduleIncomplete(t *testing.T) {
	g := gen.Path(5)
	s := &Schedule{Sets: [][]int32{{0}}}
	res, err := replayFresh(g, 0, s, StrictInformed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("short schedule reported complete")
	}
	if res.Informed != 2 {
		t.Fatalf("informed = %d, want 2", res.Informed)
	}
}

func TestRunProtocolAlwaysTransmitOnPath(t *testing.T) {
	// "Every informed node transmits every round" succeeds on a path:
	// only the frontier's single new node has exactly one transmitting
	// neighbour... actually on a path interior nodes have two informed
	// neighbours transmitting, colliding. The frontier node w at distance
	// r has exactly one informed neighbour, so it receives. Broadcast
	// completes in n-1 rounds.
	const n = 12
	g := gen.Path(n)
	rng := xrand.New(1)
	always := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return true })
	res := runFresh(g, 0, always, 5*n, rng)
	if !res.Completed {
		t.Fatalf("flooding on path incomplete: %+v", res.Informed)
	}
	if res.Rounds != n-1 {
		t.Fatalf("flooding on path took %d rounds, want %d", res.Rounds, n-1)
	}
}

func TestRunProtocolFloodingStallsOnStarPair(t *testing.T) {
	// Two informed leaves of a star transmitting forever always collide
	// at the centre: broadcast from a 2-informed state never finishes.
	// Construct: vertices 0(src),1,2; edges 0-1, 0-2, and 1,2 both
	// adjacent to 3. After round 1, 1 and 2 informed. Flooding then has
	// 0,1,2 transmitting every round; 3 hears 1 and 2 -> collision
	// forever.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	rng := xrand.New(2)
	always := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return true })
	res := runFresh(g, 0, always, 50, rng)
	if res.Completed {
		t.Fatal("deterministic flooding should deadlock on the collision gadget")
	}
	if res.Informed != 3 {
		t.Fatalf("informed = %d, want 3", res.Informed)
	}
}

func TestRunProtocolRandomizedEscapesCollision(t *testing.T) {
	// Same gadget, but transmitting with probability 1/2 breaks the
	// symmetry quickly.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	rng := xrand.New(3)
	half := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		return r.Bernoulli(0.5)
	})
	res := runFresh(g, 0, half, 200, rng)
	if !res.Completed {
		t.Fatal("randomized protocol failed to escape the collision gadget")
	}
}

func TestBroadcastTimeSentinel(t *testing.T) {
	g := gen.Path(6)
	rng := xrand.New(4)
	never := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return false })
	if got := timeFresh(g, 0, never, 10, rng); got != 11 {
		t.Fatalf("completion sentinel = %d, want 11", got)
	}
	always := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool { return true })
	if got := timeFresh(g, 0, always, 10, rng); got != 5 {
		t.Fatalf("completion round = %d, want 5", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := star(5) // centre 0, leaves 1..4
	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	st := e.Counters()
	if st.Transmissions != 1 || st.Successes != 4 || st.NewlyInformed != 4 || st.Collisions != 0 {
		t.Fatalf("stats after round 1: %+v", st)
	}
	// Two leaves transmit: the centre hears a collision.
	if _, err := e.Round([]int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	st = e.Counters()
	if st.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", st.Collisions)
	}
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
}

func TestDeliveriesToAlreadyInformed(t *testing.T) {
	// Triangle: after 0 transmits, 1 and 2 informed. If 1 transmits,
	// both 0 and 2 hear it cleanly (deliveries) but nobody is newly
	// informed.
	g := gen.Complete(3)
	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	newly, err := e.Round([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatalf("newly = %v", newly)
	}
	st := e.Counters()
	if st.Successes != 2+2 {
		t.Fatalf("deliveries = %d, want 4", st.Successes)
	}
	if st.NewlyInformed != 2 {
		t.Fatalf("newlyInformed = %d, want 2", st.NewlyInformed)
	}
}

func TestEngineScratchIsolationAcrossRounds(t *testing.T) {
	// The reception planes must be fully reset between rounds; otherwise a
	// second identical round would see phantom collisions.
	g := star(6)
	e := NewEngine(g, 0, StrictInformed)
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	before := e.Counters().Collisions
	if _, err := e.Round([]int32{1}); err != nil {
		t.Fatal(err)
	}
	// Node 0 hears leaf 1 alone: no collision.
	if e.Counters().Collisions != before {
		t.Fatal("stale reception planes caused phantom collision")
	}
}

// TestNewlyOrder pins the order of Round's newly-informed list, which the
// sampled runner appends to its eligible list and so feeds PartialShuffle:
// ascending on dense rounds (2·visits >= n), first-touch on sparse ones
// (distinct transmitters in set order, each one's neighbours in adjacency
// order).
func TestNewlyOrder(t *testing.T) {
	rng := xrand.New(21)
	dense, sparse := 0, 0
	for c := 0; c < 40; c++ {
		n := 2 + rng.Intn(200)
		g := smallRandomGraph(n, n, rng.Uint64())
		e := NewEngine(g, 0, MagicTransmitters)
		for r := 0; r < 6; r++ {
			k := rng.Intn(n/8 + 1)
			if rng.Bool() {
				k = rng.Intn(n + 1)
			}
			set := rng.Sample(n, k)
			if k > 0 {
				set = append(set, set[0]) // a duplicate must not move anything
			}
			want, isDense := wantNewly(e, set)
			if isDense {
				dense++
			} else {
				sparse++
			}
			got, err := e.Round(set)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("case %d round %d (n=%d, dense=%v): newly %v, want %v", c, r+1, n, isDense, got, want)
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("coverage: %d dense, %d sparse rounds", dense, sparse)
	}
}

// wantNewly derives from the model alone the nodes set newly informs on
// e, in the order Round must list them, and whether the round is dense.
func wantNewly(e *Engine, set []int32) ([]int32, bool) {
	g := e.Graph()
	tx := make(map[int32]bool)
	hits := make([]int, g.N())
	var touched []int32
	visits := 0
	for _, v := range set {
		if tx[v] {
			continue
		}
		tx[v] = true
		for _, w := range g.Neighbors(v) {
			visits++
			if hits[w] == 0 {
				touched = append(touched, w)
			}
			hits[w]++
		}
	}
	dense := 2*visits >= g.N()
	if dense {
		touched = touched[:0]
		for w, h := range hits {
			if h > 0 {
				touched = append(touched, int32(w))
			}
		}
	}
	var want []int32
	for _, w := range touched {
		if hits[w] == 1 && !tx[w] && !e.Informed(w) {
			want = append(want, w)
		}
	}
	return want, dense
}

func TestRandomGraphFloodingProgress(t *testing.T) {
	// Sanity: on G(n,p) with healthy degree, a 1/d-probability protocol
	// eventually completes.
	rng := xrand.New(7)
	const n = 500
	d := 12.0
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 50)
	if !ok {
		t.Skip("could not draw connected sample")
	}
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 3 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	res := runFresh(g, 0, p, 2000, rng)
	if !res.Completed {
		t.Fatalf("randomized flooding incomplete: informed %d/%d", res.Informed, n)
	}
}

func TestNewEnginePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad source did not panic")
		}
	}()
	NewEngine(gen.Path(3), 5, StrictInformed)
}

func BenchmarkRound(b *testing.B) {
	rng := xrand.New(1)
	const n = 50000
	g := gen.Gnp(n, gen.PForDegree(n, 20), rng)
	e := NewEngine(g, 0, MagicTransmitters)
	tx := rng.Sample(n, n/20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Round(tx); err != nil {
			b.Fatal(err)
		}
	}
}

package gossip

import (
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
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

func TestRoundRobinGossipCompletes(t *testing.T) {
	const n = 60
	g := connected(t, n, 8, 1)
	rng := xrand.New(2)
	diam := graph.Diameter(g)
	res := Run(g, &protocols.RoundRobin{N: n}, n*(diam+2), rng)
	if !res.Completed {
		t.Fatalf("round-robin gossip incomplete: min known %d", res.MinKnown)
	}
	if res.KnownTotal != int64(n)*int64(n) {
		t.Fatalf("KnownTotal = %d, want %d", res.KnownTotal, n*n)
	}
}

func TestUniformGossipCompletesOnGnp(t *testing.T) {
	const n = 300
	d := 2 * math.Log(n)
	g := connected(t, n, d, 3)
	rng := xrand.New(4)
	res := Run(g, protocols.NewAloha(d), 100000, rng)
	if !res.Completed {
		t.Fatalf("uniform gossip incomplete: min known %d/%d", res.MinKnown, n)
	}
}

func TestPhasedGossipCompletesAndBeatsRoundRobin(t *testing.T) {
	const n = 400
	d := 2 * math.Log(n)
	g := connected(t, n, d, 5)
	phased := Time(g, NewPhased(n, d), 100000, xrand.New(6))
	rr := Time(g, &protocols.RoundRobin{N: n}, 100000, xrand.New(7))
	if phased > 100000 || rr > 100000 {
		t.Fatalf("incomplete: phased=%d rr=%d", phased, rr)
	}
	if phased >= rr {
		t.Fatalf("phased gossip (%d) not faster than round robin (%d)", phased, rr)
	}
}

func TestGossipOnCompleteGraph(t *testing.T) {
	// On K_n with one transmitter per round (round robin), after each
	// node transmits once everyone knows everything: exactly n rounds
	// (the n-th transmission is still needed for the last rumor).
	const n = 20
	g := gen.Complete(n)
	rng := xrand.New(8)
	res := Run(g, &protocols.RoundRobin{N: n}, 5*n, rng)
	if !res.Completed {
		t.Fatal("incomplete on K_n")
	}
	if res.Rounds != n {
		t.Fatalf("K_n round-robin gossip took %d rounds, want exactly %d", res.Rounds, n)
	}
}

func TestGossipFloodingStalls(t *testing.T) {
	// Everyone transmitting every round: all receivers with degree >= 2
	// collide forever on G(n,p); rumor counts stay at 1 for most nodes.
	const n = 200
	g := connected(t, n, 12, 9)
	rng := xrand.New(10)
	res := Run(g, protocols.Flood{}, 500, rng)
	if res.Completed {
		t.Fatal("permanent flooding should not complete gossip")
	}
}

func TestGossipPathSmall(t *testing.T) {
	g := gen.Path(5)
	rng := xrand.New(11)
	res := Run(g, &protocols.RoundRobin{N: 5}, 200, rng)
	if !res.Completed {
		t.Fatalf("path gossip incomplete: %+v", res)
	}
	// Information from each end must cross the whole path: at least
	// 2·(diameter) rounds are information-theoretically required; round
	// robin needs more.
	if res.Rounds < 8 {
		t.Fatalf("path gossip finished impossibly fast: %d", res.Rounds)
	}
}

func TestGossipSingletonAndEmpty(t *testing.T) {
	rng := xrand.New(12)
	res := Run(graph.NewBuilder(1).Build(), &protocols.RoundRobin{N: 1}, 10, rng)
	if !res.Completed || res.Rounds != 0 {
		t.Fatalf("singleton gossip: %+v", res)
	}
	res = Run(graph.NewBuilder(0).Build(), &protocols.RoundRobin{N: 1}, 10, rng)
	if !res.Completed {
		t.Fatalf("empty gossip: %+v", res)
	}
}

func TestTimeSentinel(t *testing.T) {
	b := graph.NewBuilder(2) // disconnected: can never complete
	g := b.Build()
	rng := xrand.New(13)
	if got := Time(g, &protocols.RoundRobin{N: 2}, 10, rng); got != 11 {
		t.Fatalf("sentinel = %d", got)
	}
}

func TestNewPhasedShape(t *testing.T) {
	p := NewPhased(100000, 20)
	if p.FloodRounds < 2 || p.FloodRounds > 5 {
		t.Fatalf("flood rounds = %d", p.FloodRounds)
	}
	if p.Q != 1.0/20 {
		t.Fatalf("Q = %v", p.Q)
	}
	p = NewPhased(2, 1)
	if p.FloodRounds < 1 || p.Q != 0.5 {
		t.Fatalf("degenerate phased: %+v", p)
	}
}

func TestKnowledgeMonotone(t *testing.T) {
	// Property: rumor counts never decrease and the origin rumor is never
	// lost — checked by instrumenting a short run.
	const n = 100
	g := connected(t, n, 10, 14)
	rng := xrand.New(15)
	// Run twice with the same seed but different budgets: the longer run
	// must dominate the shorter in KnownTotal.
	short := Run(g, &protocols.Aloha{P: 0.1}, 20, xrand.New(16))
	long := Run(g, &protocols.Aloha{P: 0.1}, 40, xrand.New(16))
	if long.KnownTotal < short.KnownTotal {
		t.Fatalf("knowledge decreased: %d -> %d", short.KnownTotal, long.KnownTotal)
	}
	_ = rng
}

func BenchmarkPhasedGossip(b *testing.B) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(b, n, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i))
		res := Run(g, NewPhased(n, d), 100000, rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// referenceGossipRound is a naive oracle for one gossip round: given
// per-node rumor sets and the transmitter set, it counts each listener's
// transmitting neighbours from its own adjacency and returns the updated
// rumor sets, the round's trace record (Informed left for the caller) and
// whether the engine takes the dense side for this set.
func referenceGossipRound(g *graph.Graph, know [][]bool, tx []int32) ([][]bool, trace.RoundRecord, bool) {
	n := g.N()
	inTx := make([]bool, n)
	visits := 0
	for _, v := range tx {
		inTx[v] = true
		visits += len(g.Neighbors(v))
	}
	next := make([][]bool, n)
	for v := range next {
		next[v] = append([]bool{}, know[v]...)
	}
	rec := trace.RoundRecord{Transmitters: len(tx)}
	for w := 0; w < n; w++ {
		if inTx[w] {
			continue
		}
		var sender int32 = -1
		count := 0
		for _, nb := range g.Neighbors(int32(w)) {
			if inTx[nb] {
				count++
				sender = nb
			}
		}
		switch {
		case count == 1:
			rec.Successes++
			for m, has := range know[sender] {
				if has {
					next[w][m] = true
				}
			}
		case count >= 2:
			rec.Collisions++
		}
	}
	rec.Silent = n - len(tx) - rec.Successes - rec.Collisions
	return next, rec, 2*visits >= n
}

// scriptedGossip transmits according to a precomputed per-round set. It
// panics unless every node is reported informed at round 0, the gossip
// reading of a radio.Protocol.
type scriptedGossip struct{ rounds [][]bool }

func (s scriptedGossip) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	if informedAt != 0 {
		panic("gossip node not informed at round 0")
	}
	return round-1 < len(s.rounds) && s.rounds[round-1][v]
}

// TestGossipMatchesReferenceImplementation diffs scripted runs against the
// naive reference node by node and round by round, on graphs of up to 200
// nodes so rounds cross plane words and take both reception sides.
func TestGossipMatchesReferenceImplementation(t *testing.T) {
	rng := xrand.New(99)
	dense, sparse := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(196)
		g := gen.Gnp(n, float64(1+rng.Intn(12))/float64(n), rng)
		// Script random transmitter sets, from a single node to all of them.
		const rounds = 12
		script := make([][]bool, rounds)
		sets := make([][]int32, rounds)
		for r := range script {
			sets[r] = rng.Sample(n, 1+rng.Intn(n))
			script[r] = make([]bool, n)
			for _, v := range sets[r] {
				script[r][v] = true
			}
		}
		var obs trace.Recorder
		res, got := run(g, scriptedGossip{script}, rounds, xrand.New(1), &obs)

		// Reference trajectory.
		know := make([][]bool, n)
		for v := range know {
			know[v] = make([]bool, n)
			know[v][v] = true
		}
		complete := 0
		for r := 0; r < rounds && complete < n; r++ {
			var rec trace.RoundRecord
			var isDense bool
			prev := know
			know, rec, isDense = referenceGossipRound(g, know, sets[r])
			if isDense {
				dense++
			} else {
				sparse++
			}
			rec.Round = r + 1
			for v := range know {
				if countTrue(know[v]) == n && countTrue(prev[v]) < n {
					rec.NewlyInformed++
				}
			}
			complete += rec.NewlyInformed
			rec.Informed = complete
			if r >= len(obs.Records) || obs.Records[r] != rec {
				t.Fatalf("trial %d (n=%d) round %d: engine records %+v, reference %+v", trial, n, r+1, obs.Records, rec)
			}
		}
		if res.Rounds != len(obs.Records) {
			t.Fatalf("trial %d: %d rounds, %d records", trial, res.Rounds, len(obs.Records))
		}
		var wantTotal int64
		wantMin := n
		for v := range know {
			for m, has := range know[v] {
				if got[v].Test(m) != has {
					t.Fatalf("trial %d (n=%d): node %d rumor %d: engine %v, reference %v", trial, n, v, m, got[v].Test(m), has)
				}
			}
			c := countTrue(know[v])
			wantTotal += int64(c)
			wantMin = min(wantMin, c)
		}
		// KnownTotal and MinKnown come from the engine's running counts,
		// not from the sets compared above, so check them as well.
		if res.KnownTotal != wantTotal || res.MinKnown != wantMin {
			t.Fatalf("trial %d (n=%d): engine (total=%d min=%d) != reference (total=%d min=%d)",
				trial, n, res.KnownTotal, res.MinKnown, wantTotal, wantMin)
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("coverage: %d dense, %d sparse rounds", dense, sparse)
	}
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func TestRunObservedMatchesRun(t *testing.T) {
	const n = 50
	g := connected(t, n, 8, 5)
	p := NewPhased(n, 8)
	budget := 400
	plain := Run(g, p, budget, xrand.New(3))
	var c trace.Counters
	observed := RunObserved(g, p, budget, xrand.New(3), &c)
	if plain != observed {
		t.Fatalf("observed run diverged: %+v vs %+v", observed, plain)
	}
	if c.Runs != 1 || c.Rounds != observed.Rounds {
		t.Fatalf("counters %+v for %d rounds", c, observed.Rounds)
	}
	if observed.Completed && (c.Completed != 1 || c.Informed != n) {
		t.Fatalf("completion not observed: %+v", c)
	}
	// Per-round quantities partition the node set.
	if got := c.Transmissions + c.Successes + c.Collisions + c.Silent; got != c.Rounds*n {
		t.Fatalf("tx+ok+col+silent = %d, want rounds*n = %d", got, c.Rounds*n)
	}
}

func TestRunObservedRecords(t *testing.T) {
	const n = 40
	g := connected(t, n, 7, 9)
	var rec trace.Recorder
	res := RunObserved(g, NewPhased(n, 7), 400, xrand.New(4), &rec)
	if !rec.Began || !rec.Ended {
		t.Fatalf("begin/end not delivered")
	}
	if rec.Info.N != n || rec.Info.Sources != n {
		t.Fatalf("run info %+v", rec.Info)
	}
	if len(rec.Records) != res.Rounds {
		t.Fatalf("%d records for %d rounds", len(rec.Records), res.Rounds)
	}
	last := rec.Records[len(rec.Records)-1]
	if res.Completed && last.Informed != n {
		t.Fatalf("last record informed %d, want %d", last.Informed, n)
	}
	if rec.Summary.Rounds != res.Rounds || rec.Summary.Completed != res.Completed {
		t.Fatalf("summary %+v vs result %+v", rec.Summary, res)
	}
}

// TestGossipDeterministic is the map-iteration audit regression: two runs
// with identical seeds must produce identical results AND identical
// per-round traces, for every stock protocol. The know-sets are index-
// ordered []*bitset.Set (no map iteration anywhere in the loop), so any
// future nondeterminism sneaking in — a map-ordered transmitter list, a
// rng consumed conditionally on map order — trips this test.
func TestGossipDeterministic(t *testing.T) {
	const n = 200
	d := 2 * math.Log(n)
	g := connected(t, n, d, 11)
	stock := map[string]radio.Protocol{
		"round-robin": &protocols.RoundRobin{N: n},                     // deterministic per-node path
		"aloha":       protocols.NewAloha(d),                           // sampled fast path
		"phased":      NewPhased(n, d),                                 // sampled fast path, two regimes
		"per-node":    struct{ radio.Protocol }{protocols.NewAloha(d)}, // hidden RoundProb
	}
	for name, p := range stock {
		var r1, r2 trace.Recorder
		a := RunObserved(g, p, 5000, xrand.New(42), &r1)
		b := RunObserved(g, p, 5000, xrand.New(42), &r2)
		if a != b {
			t.Fatalf("%s: results differ across identical runs:\n%+v\n%+v", name, a, b)
		}
		if len(r1.Records) != len(r2.Records) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(r1.Records), len(r2.Records))
		}
		for i := range r1.Records {
			if r1.Records[i] != r2.Records[i] {
				t.Fatalf("%s: round %d records differ:\n%+v\n%+v", name, i+1, r1.Records[i], r2.Records[i])
			}
		}
		if !a.Completed {
			t.Fatalf("%s: gossip incomplete (determinism check vacuous)", name)
		}
	}
}

// panicUniform declares every round uniform at Q over cohort C and
// panics if it is ever asked per node.
type panicUniform struct {
	Q float64
	C radio.Cohort
}

func (panicUniform) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	panic("panicUniform.Transmit called")
}

func (p panicUniform) RoundProb(round int) (float64, radio.Cohort, bool) {
	return p.Q, p.C, true
}

// TestUniformDeclarationIsTheSwitch: the protocol's radio.UniformProtocol
// declaration alone picks the path. A uniform protocol whose Transmit
// panics completes through the sampler, and panics once wrapped in
// struct{ radio.Protocol }, which hides RoundProb. A cohort that excludes
// round 0 leaves every round silent.
func TestUniformDeclarationIsTheSwitch(t *testing.T) {
	const n = 150
	d := 2 * math.Log(n)
	g := connected(t, n, d, 17)
	p := panicUniform{Q: 1 / d, C: radio.AllInformed}
	if res := Run(g, p, 100000, xrand.New(18)); !res.Completed {
		t.Fatalf("sampled gossip incomplete: %+v", res)
	}
	var c trace.Counters
	res := RunObserved(g, panicUniform{Q: 1, C: radio.InformedBy(-1)}, 5, xrand.New(18), &c)
	if res.Completed || c.Transmissions != 0 || res.KnownTotal != n {
		t.Fatalf("empty cohort transmitted: %+v, %d transmissions", res, c.Transmissions)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a protocol hiding RoundProb did not call Transmit")
		}
	}()
	Run(g, struct{ radio.Protocol }{p}, 100000, xrand.New(18))
}

// TestGossipSampledMatchesPerNodeDistribution: the sampled fast path must
// complete in a similar number of rounds as the per-node path — a coarse
// distributional check (the exact per-seed values differ by design; the
// medians must not).
func TestGossipSampledMatchesPerNodeDistribution(t *testing.T) {
	const n = 150
	d := 2 * math.Log(n)
	g := connected(t, n, d, 13)
	const trials = 31
	sampled := make([]int, trials)
	perNode := make([]int, trials)
	p := NewPhased(n, d)
	forced := radio.ProtocolFunc(p.Transmit) // hides RoundProb: per-node path
	for i := 0; i < trials; i++ {
		sampled[i] = Time(g, p, 100000, xrand.New(uint64(1000+i)))
		perNode[i] = Time(g, forced, 100000, xrand.New(uint64(2000+i)))
	}
	sort.Ints(sampled)
	sort.Ints(perNode)
	ms, mp := sampled[trials/2], perNode[trials/2]
	if ms > 100000 || mp > 100000 {
		t.Fatalf("incomplete runs: sampled median %d, per-node median %d", ms, mp)
	}
	// Medians of the same distribution over 31 trials: allow a wide
	// tolerance; catching a wrong-by-construction sampler (e.g. double
	// sampling, wrong cohort) is the point, not statistical power.
	lo, hi := mp/2, mp*2
	if ms < lo || ms > hi {
		t.Fatalf("sampled median %d outside [%d, %d] around per-node median %d", ms, lo, hi, mp)
	}
}

package oracle

// The differential harness: randomized (graph, protocol, seed) cases
// cross-checking every execution path of the optimized radio engine
// against the naive oracle — per-node transmitter draws, the sampled
// fast path, dense vs sparse round classification, schedule replay,
// multi-source runs, faulted subgraphs, and the CD feedback variant.
//
// Reproducing a failure: every case derives its randomness from the
// printed case index via xrand.New(diffBaseSeed).Derive(i), and the
// failure message carries the full case parameters (n, m, src, protocol,
// run seed). Re-run the one test with -run and the same build to replay
// the identical case; see docs/WALKTHROUGH.md ("Trust, but verify").
// ORACLE_DIFF_CASES=N scales every suite up for soak runs.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// diffBaseSeed anchors every randomized suite; the per-case stream is
// Derive(case index), so a failing case replays from its index alone.
const diffBaseSeed = 0xD1FF0AC1E5

// runEngine drives p on e's current state with a background context.
func runEngine(e *radio.Engine, p radio.Protocol, maxRounds int, rng *xrand.Rand) radio.Result {
	res, _ := e.RunProtocolContext(context.Background(), p, maxRounds, rng)
	return res
}

// perNode hides p's uniform rounds (radio.UniformProtocol), so the engine
// asks every informed node each round: the per-node stream, which draws
// exactly what the oracle draws.
func perNode(p radio.Protocol) radio.Protocol { return struct{ radio.Protocol }{p} }

// diffCases returns the per-suite case budget: at least min, scaled up
// by ORACLE_DIFF_CASES for soak runs.
func diffCases(min int) int {
	if s := os.Getenv("ORACLE_DIFF_CASES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > min {
			return v
		}
	}
	return min
}

// randomCase samples one differential case: a G(n,p) graph (connected or
// not — the comparison holds either way), a source, and a run seed.
func randomCase(crng *xrand.Rand) (g *graph.Graph, src int32, seed uint64) {
	n := 2 + crng.Intn(40)
	d := 0.5 + crng.Float64()*float64(n)/2
	g = gen.Gnp(n, d/float64(n), crng)
	return g, int32(crng.Intn(n)), crng.Uint64()
}

// randomProtocol draws a protocol covering flooding, kick-off and
// selective uniform rounds, restricted cohorts, and (when perNodeOnly
// protocols are allowed) a non-uniform protocol that forces the engine's
// per-node fallback even on the sampled path.
func randomProtocol(crng *xrand.Rand, n int, includeNonUniform bool) (radio.Protocol, string) {
	d := 2 + crng.Float64()*10
	k := 4
	if includeNonUniform {
		k = 5
	}
	switch crng.Intn(k) {
	case 0:
		return core.NewDistributedProtocol(n, d), fmt.Sprintf("distributed(d=%.2f)", d)
	case 1:
		return core.NewRestrictedPoolProtocol(n, d), fmt.Sprintf("restricted(d=%.2f)", d)
	case 2:
		return protocols.NewDecay(n), "decay"
	case 3:
		return protocols.NewAloha(d), fmt.Sprintf("aloha(d=%.2f)", d)
	default:
		return &protocols.RoundRobin{N: n}, "roundrobin"
	}
}

func maxRoundsFor(n int) int {
	mr := core.MaxRoundsFor(n)
	if mr > 200 {
		mr = 200
	}
	return mr
}

// TestDifferentialPerNode checks the engine's per-node sampling path
// bit-for-bit against the oracle: both consume the same rng stream in
// the same order, so every field of the result and every per-round
// record must match exactly.
func TestDifferentialPerNode(t *testing.T) {
	base := xrand.New(diffBaseSeed)
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		p, name := randomProtocol(crng, g.N(), true)
		mr := maxRoundsFor(g.N())

		e := radio.NewEngine(g, src, radio.StrictInformed)
		rec := &trace.Recorder{}
		e.Attach(rec)
		res := runEngine(e, perNode(p), mr, xrand.New(seed))

		o := New(g, []int32{src}, radio.StrictInformed)
		ores := o.RunProtocol(p, mr, xrand.New(seed))

		if d := Compare(res, ores); d != "" {
			t.Fatalf("case %d (%v src=%d proto=%s seed=%#x): per-node path diverges from oracle:\n%s",
				i, g, src, name, seed, d)
		}
		if d := CompareRecords(rec.Records, o.Records); d != "" {
			t.Fatalf("case %d (%v src=%d proto=%s seed=%#x): per-round records diverge:\n%s",
				i, g, src, name, seed, d)
		}
	}
}

// TestDifferentialSampled checks the sampled-transmitter fast path: the
// oracle cannot reproduce the (shorter) sampled rng stream, so the
// harness records exactly what the engine drew each round and replays
// those sets against the naive semantics. On top of the state/record
// comparison it verifies each drawn set against the protocol's declared
// cohort: every transmitter was informed before the round and inside the
// cohort cutoff, and q >= 1 rounds select every eligible node.
func TestDifferentialSampled(t *testing.T) {
	base := xrand.New(diffBaseSeed + 1)
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		p, name := randomProtocol(crng, g.N(), false)
		mr := maxRoundsFor(g.N())

		e := radio.NewEngine(g, src, radio.StrictInformed) // sampled by default
		rec := &TxRecorder{}
		e.Attach(rec)
		res := runEngine(e, p, mr, xrand.New(seed))

		o := New(g, []int32{src}, radio.StrictInformed)
		ores, err := o.Replay(rec.Sets)
		if err != nil {
			t.Fatalf("case %d (%v src=%d proto=%s seed=%#x): engine drew a set the model rejects: %v",
				i, g, src, name, seed, err)
		}
		if d := Compare(res, ores); d != "" {
			t.Fatalf("case %d (%v src=%d proto=%s seed=%#x): sampled path diverges from oracle:\n%s",
				i, g, src, name, seed, d)
		}
		if d := CompareRecords(rec.Records, o.Records); d != "" {
			t.Fatalf("case %d (%v src=%d proto=%s seed=%#x): per-round records diverge:\n%s",
				i, g, src, name, seed, d)
		}
		checkCohorts(t, i, name, p, rec.Sets, ores.InformedAt)
	}
}

// checkCohorts validates every recorded uniform-round transmitter set
// against the protocol's declared (q, cohort): membership, eligibility
// timing, and completeness for q >= 1 rounds.
func checkCohorts(t *testing.T, caseIdx int, name string, p radio.Protocol, sets [][]int32, informedAt []int32) {
	t.Helper()
	up, ok := p.(radio.UniformProtocol)
	if !ok {
		return
	}
	for ri, set := range sets {
		round := ri + 1
		q, cohort, uok := up.RoundProb(round)
		if !uok {
			continue
		}
		eligible := 0
		for _, at := range informedAt {
			if at != radio.NotInformed && int(at) < round && cohort.Contains(at) {
				eligible++
			}
		}
		for _, v := range set {
			at := informedAt[v]
			if at == radio.NotInformed || int(at) >= round {
				t.Fatalf("case %d (proto=%s): round %d transmitter %d informed at %d — not yet eligible",
					caseIdx, name, round, v, at)
			}
			if !cohort.Contains(at) {
				t.Fatalf("case %d (proto=%s): round %d transmitter %d (informed at %d) outside cohort",
					caseIdx, name, round, v, at)
			}
		}
		if q >= 1 && len(set) != eligible {
			t.Fatalf("case %d (proto=%s): round %d has q=%v but drew %d of %d eligible nodes",
				caseIdx, name, round, q, len(set), eligible)
		}
	}
}

// TestDifferentialRoundClassification drives Engine.Round directly with
// random transmitter sets (duplicates injected, uninformed nodes allowed
// under MagicTransmitters) so that rounds land on both sides of the
// dense/sparse classification switch (2·visits >= n), and compares every
// round against the oracle. The suite asserts both strategies were
// actually exercised.
func TestDifferentialRoundClassification(t *testing.T) {
	base := xrand.New(diffBaseSeed + 2)
	dense, sparse := 0, 0
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, _ := randomCase(crng)
		n := g.N()
		e := radio.NewEngine(g, src, radio.MagicTransmitters)
		rec := &trace.Recorder{}
		e.Attach(rec)
		o := New(g, []int32{src}, radio.MagicTransmitters)
		rounds := 1 + crng.Intn(10)
		for r := 0; r < rounds; r++ {
			k := crng.Intn(n + 1)
			set := crng.Sample(n, k)
			// Inject duplicates: both sides must treat them as one.
			if len(set) > 0 && crng.Bool() {
				set = append(set, set[crng.Intn(len(set))])
			}
			visits := 0
			seen := make(map[int32]bool)
			for _, v := range set {
				if !seen[v] {
					seen[v] = true
					visits += g.Degree(v)
				}
			}
			if 2*visits >= n {
				dense++
			} else {
				sparse++
			}
			newlyE, errE := e.Round(set)
			newlyO, errO := o.Round(set)
			if (errE == nil) != (errO == nil) {
				t.Fatalf("case %d round %d: engine err %v, oracle err %v", i, r+1, errE, errO)
			}
			if errE != nil {
				continue
			}
			if !sameSet(newlyE, newlyO) {
				t.Fatalf("case %d (%v) round %d (visits=%d, n=%d): newly informed differ: engine %v, oracle %v",
					i, g, r+1, visits, n, newlyE, newlyO)
			}
		}
		if d := CompareRecords(rec.Records, o.Records); d != "" {
			t.Fatalf("case %d (%v): records diverge:\n%s", i, g, d)
		}
		if d := Compare(engineResult(e), o.Result()); d != "" {
			t.Fatalf("case %d (%v): final state diverges:\n%s", i, g, d)
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("classification coverage: %d dense, %d sparse rounds — both branches must be exercised", dense, sparse)
	}
}

// engineResult snapshots a manually driven engine as a radio.Result for
// the comparator (the run helpers do this via their own resultOf).
func engineResult(e *radio.Engine) radio.Result {
	return radio.Result{
		Completed:  e.Done(),
		Rounds:     e.RoundCount(),
		Informed:   e.InformedCount(),
		N:          e.Graph().N(),
		InformedAt: e.InformedTimes(),
		Stats:      e.Counters(),
	}
}

// sameSet compares two vertex lists as sets (the engine's sparse rounds
// list newly informed nodes in first-touch order, the oracle in ascending
// order; radio's TestNewlyOrder pins the engine's order).
func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestDifferentialSchedule checks schedule replay under every
// transmitter policy, including schedules that use uninformed or
// out-of-range transmitters: engine and oracle must agree on the error
// and, when the replay succeeds, on the full result.
func TestDifferentialSchedule(t *testing.T) {
	base := xrand.New(diffBaseSeed + 3)
	policies := []radio.TransmitterPolicy{radio.StrictInformed, radio.FilterUninformed, radio.MagicTransmitters}
	errs := 0
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, _ := randomCase(crng)
		n := g.N()
		policy := policies[crng.Intn(len(policies))]
		s := &radio.Schedule{}
		rounds := 1 + crng.Intn(12)
		for r := 0; r < rounds; r++ {
			k := crng.Intn(n + 1)
			set := crng.Sample(n, k)
			if crng.Intn(8) == 0 {
				// Occasionally corrupt a round with an out-of-range vertex:
				// both sides must reject it identically.
				set = append(set, int32(n)+int32(crng.Intn(3)))
			}
			s.Sets = append(s.Sets, set)
		}

		rec := &trace.Recorder{}
		eng := radio.NewEngine(g, src, policy)
		eng.Attach(rec)
		res, errE := radio.ExecuteScheduleOnContext(context.Background(), eng, s)
		o := New(g, []int32{src}, policy)
		ores, errO := o.ExecuteSchedule(s)

		if (errE == nil) != (errO == nil) {
			t.Fatalf("case %d (%v policy=%d): engine err %v, oracle err %v", i, g, policy, errE, errO)
		}
		if errE != nil {
			errs++
			if errors.Is(errE, radio.ErrUninformedTransmitter) != errors.Is(errO, radio.ErrUninformedTransmitter) {
				t.Fatalf("case %d: error kinds differ: engine %v, oracle %v", i, errE, errO)
			}
			continue
		}
		if d := Compare(res, ores); d != "" {
			t.Fatalf("case %d (%v policy=%d): schedule replay diverges:\n%s", i, g, policy, d)
		}
		if d := CompareRecords(rec.Records, o.Records); d != "" {
			t.Fatalf("case %d (%v policy=%d): records diverge:\n%s", i, g, policy, d)
		}
	}
	if errs == 0 {
		t.Fatal("schedule suite never exercised an error path")
	}
}

// TestDifferentialMultiSource checks multi-source runs on both engine
// paths (per-node bit-identical, sampled via replay) against an oracle
// started from the same source set.
func TestDifferentialMultiSource(t *testing.T) {
	base := xrand.New(diffBaseSeed + 4)
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, _, seed := randomCase(crng)
		n := g.N()
		k := 1 + crng.Intn(4)
		if k > n {
			k = n
		}
		sources := crng.Sample(n, k)
		// Duplicate a source sometimes: both sides must tolerate it.
		if crng.Bool() {
			sources = append(sources, sources[0])
		}
		p, name := randomProtocol(crng, n, false)
		mr := maxRoundsFor(n)

		// Per-node path: same stream as the oracle.
		e := radio.NewEngineMulti(g, sources, radio.StrictInformed)
		res := runEngine(e, perNode(p), mr, xrand.New(seed))
		o := New(g, sources, radio.StrictInformed)
		ores := o.RunProtocol(p, mr, xrand.New(seed))
		if d := Compare(res, ores); d != "" {
			t.Fatalf("case %d (%v sources=%v proto=%s seed=%#x): per-node multi-source diverges:\n%s",
				i, g, sources, name, seed, d)
		}

		// Sampled path: record and replay.
		e2 := radio.NewEngineMulti(g, sources, radio.StrictInformed)
		rec := &TxRecorder{}
		e2.Attach(rec)
		res2 := runEngine(e2, p, mr, xrand.New(seed))
		o2 := New(g, sources, radio.StrictInformed)
		ores2, err := o2.Replay(rec.Sets)
		if err != nil {
			t.Fatalf("case %d: sampled multi-source drew an invalid set: %v", i, err)
		}
		if d := Compare(res2, ores2); d != "" {
			t.Fatalf("case %d (%v sources=%v proto=%s seed=%#x): sampled multi-source diverges:\n%s",
				i, g, sources, name, seed, d)
		}
	}
}

// TestDifferentialFaulted checks runs on crash-faulted subgraphs: the
// survivor topology from faults.Crash (including degenerate crash rates)
// replayed on both the engine and the oracle.
func TestDifferentialFaulted(t *testing.T) {
	base := xrand.New(diffBaseSeed + 5)
	for i := 0; i < diffCases(220); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		var q float64
		switch crng.Intn(8) {
		case 0:
			q = 1.5 // degenerate: everything but the source crashes
		case 1:
			q = -0.25 // degenerate: nobody crashes
		default:
			q = crng.Float64() * 0.8
		}
		sc := faults.Crash(g, src, q, crng.Derive(7))
		if sc.SrcNew < 0 {
			t.Fatalf("case %d: protected source crashed (q=%v)", i, q)
		}
		sub := sc.Sub
		if sub.N() == 0 {
			t.Fatalf("case %d: empty survivor graph", i)
		}
		p, name := randomProtocol(crng, sub.N(), true)
		mr := maxRoundsFor(sub.N())

		e := radio.NewEngine(sub, sc.SrcNew, radio.StrictInformed)
		res := runEngine(e, perNode(p), mr, xrand.New(seed))
		o := New(sub, []int32{sc.SrcNew}, radio.StrictInformed)
		ores := o.RunProtocol(p, mr, xrand.New(seed))
		if d := Compare(res, ores); d != "" {
			t.Fatalf("case %d (base=%v sub=%v q=%v src=%d proto=%s seed=%#x): faulted run diverges:\n%s",
				i, g, sub, q, sc.SrcNew, name, seed, d)
		}
		// The broadcast can reach at most the survivors connected to the
		// source; when it completes within budget it reaches exactly them.
		if reach := sc.ReachableFromSource(); res.Informed > reach {
			t.Fatalf("case %d: informed %d nodes, only %d reachable", i, res.Informed, reach)
		}
	}
}

// TestDifferentialFeedback cross-checks RoundWithFeedback (the CD-model
// variant) against the oracle's naive feedback computation, under the
// FilterUninformed policy, where a filtered transmitter must neither hand
// its neighbours a hit nor observe FeedbackNone itself.
func TestDifferentialFeedback(t *testing.T) {
	base := xrand.New(diffBaseSeed + 6)
	policies := []radio.TransmitterPolicy{radio.FilterUninformed, radio.MagicTransmitters}
	for i := 0; i < diffCases(200); i++ {
		crng := base.Derive(uint64(i))
		g, src, _ := randomCase(crng)
		n := g.N()
		policy := policies[crng.Intn(len(policies))]
		e := radio.NewEngine(g, src, policy)
		o := New(g, []int32{src}, policy)
		fb := make([]radio.Feedback, n)
		rounds := 1 + crng.Intn(8)
		for r := 0; r < rounds; r++ {
			set := crng.Sample(n, crng.Intn(n+1)) // mixes informed and uninformed nodes
			newlyE, errE := e.RoundWithFeedback(set, fb)
			newlyO, fbO, errO := o.RoundFeedback(set)
			if (errE == nil) != (errO == nil) {
				t.Fatalf("case %d round %d: engine err %v, oracle err %v", i, r+1, errE, errO)
			}
			if errE != nil {
				continue
			}
			if !sameSet(newlyE, newlyO) {
				t.Fatalf("case %d (%v policy=%d) round %d: newly differ: engine %v, oracle %v",
					i, g, policy, r+1, newlyE, newlyO)
			}
			for v := range fb {
				if fb[v] != fbO[v] {
					t.Fatalf("case %d (%v policy=%d) round %d: feedback[%d]: engine %v, oracle %v (set=%v)",
						i, g, policy, r+1, v, fb[v], fbO[v], set)
				}
			}
		}
	}
}

// oracleCD drives the CD-model protocol p on the oracle from src the way
// the engine's CD runner does — informed nodes decide in ascending index
// order on their previous round's feedback (silence before round 1) —
// with every observation computed naively by RoundFeedback.
func oracleCD(g *graph.Graph, src int32, p radio.FeedbackProtocol, maxRounds int, rng *xrand.Rand) radio.Result {
	o := New(g, []int32{src}, radio.StrictInformed)
	prev := make([]radio.Feedback, g.N())
	for v := range prev {
		prev[v] = radio.FeedbackSilence
	}
	for o.RoundCount() < maxRounds && !o.Done() {
		round := o.RoundCount() + 1
		var tx []int32
		for v := int32(0); int(v) < g.N(); v++ {
			if o.Informed(v) && p.TransmitCD(v, round, o.InformedAt(v), prev[v], rng) {
				tx = append(tx, v)
			}
		}
		_, fb, err := o.RoundFeedback(tx)
		if err != nil {
			panic(err) // only informed nodes are offered
		}
		prev = fb
	}
	return o.Result()
}

// TestDifferentialCDRun cross-checks whole CD-model runs through
// internal/exec (Request.Feedback) against the oracle-driven CD loop on
// the same seeds: same decisions, same observations, same Result.
func TestDifferentialCDRun(t *testing.T) {
	base := xrand.New(diffBaseSeed + 9)
	for i := 0; i < diffCases(150); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		budget := 1 + crng.Intn(300)
		got, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{src},
			Feedback: protocols.NewBackoff(g.N()), MaxRounds: budget}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCD(g, src, protocols.NewBackoff(g.N()), budget, xrand.New(seed))
		if d := Compare(got, want); d != "" {
			t.Fatalf("case %d (%v src=%d budget=%d seed=%d): exec CD run diverges from the oracle:\n%s",
				i, g, src, budget, seed, d)
		}
	}
}

// TestDenseBoundaryExact drives Engine.Round exactly at the dense/sparse
// classification boundary (2·visits == n) and one transmitter either
// side of it, comparing every round against the oracle. A perfect
// matching on n nodes gives each transmitter exactly one visit, so the
// transmitter count IS the visit count and the boundary can be hit
// exactly.
func TestDenseBoundaryExact(t *testing.T) {
	for _, pairs := range []int{2, 3, 8, 16} {
		n := 2 * pairs
		b := graph.NewBuilder(n)
		for i := 0; i < pairs; i++ {
			b.AddEdge(int32(2*i), int32(2*i+1)) // matching: degree 1 everywhere
		}
		g := b.Build()
		// k transmitters = k visits; the dense path triggers at 2k >= n,
		// i.e. k = pairs. Probe k-1, k, k+1.
		for dk := -1; dk <= 1; dk++ {
			k := pairs + dk
			if k < 1 || k > n {
				continue
			}
			e := radio.NewEngine(g, 0, radio.MagicTransmitters)
			o := New(g, []int32{0}, radio.MagicTransmitters)
			// Transmit from the left endpoint of the first k pairs; past
			// the last pair, wrap onto right endpoints (also degree 1, so
			// visits == k exactly either way).
			set := make([]int32, k)
			for i := range set {
				if i < pairs {
					set[i] = int32(2 * i)
				} else {
					set[i] = int32(2*(i-pairs) + 1)
				}
			}
			newlyE, errE := e.Round(set)
			newlyO, errO := o.Round(set)
			if errE != nil || errO != nil {
				t.Fatalf("n=%d k=%d: errs %v / %v", n, k, errE, errO)
			}
			if !sameSet(newlyE, newlyO) {
				t.Fatalf("n=%d k=%d (2k=%d vs n=%d): newly differ: engine %v, oracle %v",
					n, k, 2*k, n, newlyE, newlyO)
			}
			if d := Compare(engineResult(e), o.Result()); d != "" {
				t.Fatalf("n=%d k=%d: state diverges at the classification boundary:\n%s", n, k, d)
			}
		}
	}
}

// wordBoundaryGraph builds a random graph on n nodes for the word-boundary
// diff: about four random edges per node, plus a listener (node n-1, in
// the last plane word) wired to one random node of every word, so its
// transmitting neighbours can sit in several words at once.
func wordBoundaryGraph(n int, rng *xrand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
	}
	for lo := 0; lo < n; lo += 64 {
		b.AddEdge(int32(n-1), int32(lo+rng.Intn(min(64, n-lo))))
	}
	return b.Build()
}

// TestDifferentialWordBoundaries diffs Engine.Round against the oracle,
// round by round, at node counts on and around the 64-bit word boundaries
// of the engine's once/twice reception planes. Most rounds' sets include
// a node of the last (possibly partial) word, set sizes range from none
// to all n nodes so both classification sides run, and the suite asserts
// that some listener collided on hits from more than one word.
// Dense rounds must return the oracle's ascending newly-informed list
// exactly.
func TestDifferentialWordBoundaries(t *testing.T) {
	base := xrand.New(diffBaseSeed + 9)
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200} {
		last := (n - 1) &^ 63 // first node of the last plane word
		dense, sparse, multiWord := 0, 0, 0
		for c := 0; c < diffCases(12); c++ {
			crng := base.Derive(uint64(n)<<16 | uint64(c))
			g := wordBoundaryGraph(n, crng)
			e := radio.NewEngine(g, 0, radio.MagicTransmitters)
			rec := &trace.Recorder{}
			e.Attach(rec)
			o := New(g, []int32{0}, radio.MagicTransmitters)
			for r := 0; r < 8; r++ {
				k := crng.Intn(n + 1)
				if crng.Bool() {
					k = crng.Intn(min(n, 4) + 1)
				}
				set := crng.Sample(n, k)
				if crng.Intn(4) != 0 {
					set = append(set, int32(last+crng.Intn(n-last)))
				}
				tx := make(map[int32]bool)
				visits := 0
				for _, v := range set {
					if !tx[v] {
						tx[v] = true
						visits += g.Degree(v)
					}
				}
				isDense := 2*visits >= n
				if isDense {
					dense++
				} else {
					sparse++
				}
				for w := int32(0); int(w) < n; w++ {
					words := make(map[int32]bool)
					for _, v := range g.Neighbors(w) {
						if tx[v] {
							words[v>>6] = true
						}
					}
					if !tx[w] && len(words) > 1 {
						multiWord++
					}
				}
				newlyE, errE := e.Round(set)
				newlyO, errO := o.Round(set)
				if errE != nil || errO != nil {
					t.Fatalf("n=%d case %d round %d: errs %v / %v", n, c, r+1, errE, errO)
				}
				if !sameSet(newlyE, newlyO) || (isDense && fmt.Sprint(newlyE) != fmt.Sprint(newlyO)) {
					t.Fatalf("n=%d case %d round %d (dense=%v, set %v): newly differ: engine %v, oracle %v",
						n, c, r+1, isDense, set, newlyE, newlyO)
				}
			}
			if d := CompareRecords(rec.Records, o.Records); d != "" {
				t.Fatalf("n=%d case %d: records diverge:\n%s", n, c, d)
			}
			if d := Compare(engineResult(e), o.Result()); d != "" {
				t.Fatalf("n=%d case %d: final state diverges:\n%s", n, c, d)
			}
		}
		if sparse == 0 || (n > 1 && dense == 0) {
			t.Fatalf("n=%d: classification coverage %d dense, %d sparse rounds", n, dense, sparse)
		}
		if n > 64 && multiWord == 0 {
			t.Fatalf("n=%d: no listener heard transmitters from more than one word", n)
		}
	}
}

// TestDenseSaturation checks collision classification on stars: with k
// leaves transmitting into the hub, the engine's dense path sets the
// hub's twice bit from the second hit on and leaves it set through every
// later hit, so any k >= 2 must classify as a collision. The k list keeps
// values around 255, where a byte counter that wrapped would read 0
// (silence) or 1 (spurious delivery), and well above them.
func TestDenseSaturation(t *testing.T) {
	for _, k := range []int{1, 2, 3, 254, 255, 256, 257, 300} {
		b := graph.NewBuilder(k + 1)
		for i := 1; i <= k; i++ {
			b.AddEdge(0, int32(i))
		}
		g := b.Build()
		sources := make([]int32, k)
		for i := range sources {
			sources[i] = int32(i + 1)
		}
		e := radio.NewEngineMulti(g, sources, radio.StrictInformed)
		o := New(g, sources, radio.StrictInformed)
		newlyE, errE := e.Round(sources)
		newlyO, errO := o.Round(sources)
		if errE != nil || errO != nil {
			t.Fatalf("k=%d: errs %v / %v", k, errE, errO)
		}
		if !sameSet(newlyE, newlyO) {
			t.Fatalf("k=%d: newly differ: engine %v, oracle %v", k, newlyE, newlyO)
		}
		wantHub := k == 1 // exactly one transmitting neighbour delivers
		if e.Informed(0) != wantHub {
			t.Fatalf("k=%d: hub informed=%v, want %v", k, e.Informed(0), wantHub)
		}
		if d := Compare(engineResult(e), o.Result()); d != "" {
			t.Fatalf("k=%d: state diverges under saturation:\n%s", k, d)
		}
	}
}

package lanes_test

// Differential and invariance tests for the bit-parallel lane engine.
//
// The engine's correctness story has two halves, tested separately:
//
//  1. Mechanics: for whatever transmitter sets the engine drew, the
//     per-lane reception/collision classification must match the naive
//     oracle exactly. Each lane is observed through the standard
//     trace.Observer, its recorded transmitter sets are replayed through
//     oracle.Engine.Replay, and the completion rounds, round records and
//     run summaries must be identical.
//
//  2. Distribution: the lane engine is a new randomness stream (the
//     PR 3 policy), so individual trials differ bit-wise from scalar
//     trials; the per-trial completion-round DISTRIBUTION must agree,
//     checked by a two-sample chi-square against the scalar sampled
//     path.
//
// Lane purity — each trial a pure function of its own seed — is what the
// campaign determinism guarantees rest on, so it gets its own tests:
// results must be bitwise invariant under lane width, block composition,
// position within a block, worker count and GOMAXPROCS.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func testGraph(t *testing.T, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	return gen.Gnp(n, d/float64(n), xrand.New(seed))
}

func mustPlan(t *testing.T, p radio.Protocol, maxRounds int) *lanes.Plan {
	t.Helper()
	plan, ok := lanes.NewPlan(p, maxRounds)
	if !ok {
		t.Fatalf("protocol %T did not yield a uniform plan", p)
	}
	return plan
}

// replayConfig is a protocol on a small test graph, observed in a block
// of replayWidth lanes.
type replayConfig struct {
	name    string
	n       int
	d       float64
	sources []int32
	p       func(n int, d float64) radio.Protocol
}

const replayWidth = 8

// replayConfigs covers every lane-capable schedule shape: the paper's
// protocol, a cohort-restricted one, Decay's halving probabilities,
// Aloha's constant one and Flood's q = 1. The last, Decay at n = 2000,
// has q = 1/2 rounds that pick about 1000 vertices per lane, so each
// lane's walk crosses several pick-chunk refills.
var replayConfigs = []replayConfig{
	{"distributed", 90, 6, []int32{0}, func(n int, d float64) radio.Protocol { return core.NewDistributedProtocol(n, d) }},
	{"restricted-pool", 120, 8, []int32{0, 17, 17}, func(n int, d float64) radio.Protocol { return core.NewRestrictedPoolProtocol(n, d) }},
	{"decay", 70, 5, []int32{0}, func(n int, d float64) radio.Protocol { return protocols.NewDecay(n) }},
	{"aloha", 60, 4, []int32{0}, func(n int, d float64) radio.Protocol { return protocols.NewAloha(d) }},
	{"flood", 40, 4, []int32{0}, func(n int, d float64) radio.Protocol { return protocols.Flood{} }},
	{"decay-chunked", 2000, 10, []int32{0}, func(n int, d float64) radio.Protocol { return protocols.NewDecay(n) }},
}

// TestLaneVsOracleReplay observes every lane with a transmitter-recording
// trace.Recorder, replays each lane's transmitter sets through the
// oracle, and requires the lane's round records — every field, Silent
// and Informed included — its run summary and its completion round to
// equal the oracle's.
func TestLaneVsOracleReplay(t *testing.T) {
	for ci, cfg := range replayConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			g := testGraph(t, cfg.n, cfg.d, 1000+uint64(ci))
			maxRounds := core.MaxRoundsFor(cfg.n)
			e := lanes.NewEngine(g, cfg.sources, mustPlan(t, cfg.p(cfg.n, cfg.d), maxRounds))
			recs, out := recordBlocks(e, sweep.Seeds(replayWidth, 4321+uint64(ci)), replayWidth)
			checkReplay(t, g, cfg.sources, maxRounds, recs, out)
		})
	}
}

// checkReplay replays each lane's recorded transmitter sets through the
// oracle and requires the lane's completion round, round records, run
// info and summary to match it.
func checkReplay(t *testing.T, g *graph.Graph, sources []int32, maxRounds int, recs []*oracle.TxRecorder, out []int) {
	t.Helper()
	for lane, rec := range recs {
		o := oracle.New(g, sources, radio.StrictInformed)
		informed := o.InformedCount()
		res, err := o.Replay(rec.Sets)
		if err != nil {
			t.Fatalf("lane %d: oracle replay: %v", lane, err)
		}
		if res.Completed {
			if out[lane] != res.Rounds {
				t.Errorf("lane %d: completion round %d, oracle %d", lane, out[lane], res.Rounds)
			}
		} else if out[lane] != maxRounds+1 {
			t.Errorf("lane %d: oracle incomplete but lane reports %d", lane, out[lane])
		}
		if d := oracle.CompareRecords(rec.Records, o.Records); d != "" {
			t.Fatalf("lane %d: records diverge from the oracle:\n%s", lane, d)
		}
		wantInfo := trace.RunInfo{N: g.N(), M: g.M(), Sources: informed, MaxRounds: maxRounds}
		if !rec.Began || !rec.Ended || rec.Info != wantInfo {
			t.Errorf("lane %d: began=%v ended=%v info %+v, want %+v", lane, rec.Began, rec.Ended, rec.Info, wantInfo)
		}
		wantSum := trace.Summary{
			Completed: res.Completed, Rounds: res.Rounds, Informed: res.Informed, N: g.N(),
			Transmissions: o.Transmissions, Successes: o.Successes, Collisions: o.Collisions, NewlyInformed: o.NewlyInformed,
		}
		if rec.Summary != wantSum {
			t.Errorf("lane %d: summary %+v, oracle %+v", lane, rec.Summary, wantSum)
		}
	}
}

// TestChunkedWalkDrawForDraw: the chunked pick walk that both
// transmitter builds share makes exactly the straight walk's draws — the
// first skip, one 1 + GeometricExp skip after every pick including the
// one that overshoots the list, nothing for an empty list and nothing at
// a chunk refill. For list lengths around and across chunk boundaries it
// must pick the same vertices and leave the stream in the same state. At
// q = 0.999 nearly every entry is picked, so the 255–257 lengths put the
// pick count on a chunk boundary.
func TestChunkedWalkDrawForDraw(t *testing.T) {
	lengths := []int{0, 1, lanes.PickChunk - 1, lanes.PickChunk, lanes.PickChunk + 1, 2*lanes.PickChunk + 1, 10000}
	qs := []float64{1e-3, 1.0 / 25, 0.5, 0.999}
	for li, n := range lengths {
		el := xrand.New(uint64(li) + 1).Perm(n + 7)[:n] // distinct, unordered vertices
		for qi, q := range qs {
			lam := -math.Log1p(-q)
			for rep := uint64(0); rep < 20; rep++ {
				seed := uint64(1000*li+100*qi) + rep
				ref := xrand.New(seed)
				var want []int32
				if n > 0 {
					for j := ref.GeometricExp(lam); j < n; j += 1 + ref.GeometricExp(lam) {
						want = append(want, el[j])
					}
				}
				rng := xrand.New(seed)
				got := lanes.ChunkedWalk(el, rng, lam)
				if !slices.Equal(got, want) {
					t.Fatalf("len %d q %g seed %d: chunked walk picked %d vertices, straight walk %d (or a different sequence)", n, q, seed, len(got), len(want))
				}
				if a, b := rng.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("len %d q %g seed %d: stream state differs after the walk (%#x vs %#x)", n, q, seed, a, b)
				}
			}
		}
	}
}

// TestBuildModeInvisible: how a round turns its picks into transmit
// masks — marking each pick (sparse) or ORing the picks and scanning
// txMask (dense) — never shows. Forcing either mode on every round gives
// the completion rounds, per-lane transmitter sets and round records of
// the automatic choice, observed or not, and the automatic run replays
// exactly through the oracle.
func TestBuildModeInvisible(t *testing.T) {
	modes := []struct {
		name string
		mode lanes.BuildMode
	}{{"sparse", lanes.BuildSparse}, {"dense", lanes.BuildDense}}
	for ci, cfg := range replayConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			g := testGraph(t, cfg.n, cfg.d, 1000+uint64(ci))
			maxRounds := core.MaxRoundsFor(cfg.n)
			plan := mustPlan(t, cfg.p(cfg.n, cfg.d), maxRounds)
			seeds := sweep.Seeds(replayWidth, 4321+uint64(ci))
			e := lanes.NewEngine(g, cfg.sources, plan)
			wantRecs, wantOut := recordBlocks(e, seeds, replayWidth)
			checkReplay(t, g, cfg.sources, maxRounds, wantRecs, wantOut)
			for _, m := range modes {
				e.ForceBuild(m.mode)
				recs, out := recordBlocks(e, seeds, replayWidth)
				plain := make([]int, len(seeds))
				e.Run(seeds, plain)
				if !slices.Equal(out, wantOut) || !slices.Equal(plain, wantOut) {
					t.Fatalf("%s: completion rounds %v observed, %v unobserved, want %v", m.name, out, plain, wantOut)
				}
				for lane, rec := range recs {
					if !equalSets(rec.Sets, wantRecs[lane].Sets) {
						t.Fatalf("%s: lane %d transmitter sets differ", m.name, lane)
					}
					if d := oracle.CompareRecords(rec.Records, wantRecs[lane].Records); d != "" || rec.Summary != wantRecs[lane].Summary {
						t.Fatalf("%s: lane %d records differ:\n%s", m.name, lane, d)
					}
				}
			}
		})
	}
}

// TestObservedRoundsIdentical: observing a block — every lane, some
// lanes, or none — never changes a completion round, although observed
// runs turn the saturated-listener skip off. The engine is reused across
// the three runs, so it also covers switching observation on and off.
func TestObservedRoundsIdentical(t *testing.T) {
	g := testGraph(t, 300, 8, 61)
	plan := mustPlan(t, core.NewDistributedProtocol(300, 8), core.MaxRoundsFor(300))
	seeds := sweep.Seeds(lanes.Width, 62)
	e := lanes.NewEngine(g, []int32{0}, plan)
	want := make([]int, len(seeds))
	e.Run(seeds, want)

	all := make([]trace.Observer, len(seeds))
	for i := range all {
		all[i] = &trace.Counters{}
	}
	some := make([]trace.Observer, 5) // lanes 0..4, with 1 and 3 unobserved
	some[0], some[2], some[4] = &trace.Counters{}, &trace.Counters{}, &trace.Counters{}
	for _, obs := range [][]trace.Observer{all, some, nil} {
		e.Observe(obs)
		got := make([]int, len(seeds))
		e.Run(seeds, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d observers: trial %d took %d rounds, unobserved %d", len(obs), i, got[i], want[i])
			}
		}
		for i, o := range obs {
			if c, ok := o.(*trace.Counters); ok && (c.Runs != 1 || c.Rounds != want[i] || c.Completed != 1) {
				t.Errorf("lane %d observer saw %+v, want one completed run of %d rounds", i, *c, want[i])
			}
		}
	}
}

// TestFirstBlockAllocs: a fresh engine's first block allocates little
// more than the buffers it keeps. Eligible lists sized to n on first use
// make that hold; grown by appends they would cost about five times
// their final size.
func TestFirstBlockAllocs(t *testing.T) {
	const n = 20000
	g := testGraph(t, n, 10, 71)
	plan := mustPlan(t, core.NewDistributedProtocol(n, 10), core.MaxRoundsFor(n))
	seeds := sweep.Seeds(lanes.Width, 72)
	out := make([]int, len(seeds))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := lanes.NewEngine(g, []int32{0}, plan)
	e.Run(seeds, out)
	runtime.ReadMemStats(&after)
	alloc, fp := after.TotalAlloc-before.TotalAlloc, e.Footprint()
	if float64(alloc) > 1.25*float64(fp) {
		t.Errorf("NewEngine plus the first block allocate %d B, over 1.25x the %d B footprint", alloc, fp)
	}
}

// TestLanePurity: a trial's outcome depends only on its own seed — not on
// the lane width, its position within a block, or which other trials
// share the block. This is the property that makes campaign reports
// deterministic across -lanes settings.
func TestLanePurity(t *testing.T) {
	g := testGraph(t, 200, 7, 99)
	p := core.NewDistributedProtocol(200, 7)
	maxRounds := core.MaxRoundsFor(200)
	plan := mustPlan(t, p, maxRounds)

	const trials = 130
	seeds := sweep.Seeds(trials, 2006)
	ref := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 64, 1, ref); err != nil {
		t.Fatal(err)
	}

	// Width 1: every trial alone in its own block.
	solo := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 1, 1, solo); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if solo[i] != ref[i] {
			t.Fatalf("trial %d: solo run %d, 64-lane block %d", i, solo[i], ref[i])
		}
	}

	// Reversed block composition: trial seeds in reverse order must give
	// the reversed results exactly.
	rev := make([]uint64, trials)
	for i, s := range seeds {
		rev[trials-1-i] = s
	}
	revOut := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, rev, 64, 1, revOut); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if revOut[trials-1-i] != ref[i] {
			t.Fatalf("trial %d: result changed when block composition reversed", i)
		}
	}

	// The transmitter stream is lane-pure too: a trial's observer sees
	// the same per-round sets, in the same order, whether the trial runs
	// alone, in a full block or in the reversed block.
	block := seeds[:lanes.Width]
	e := lanes.NewEngine(g, []int32{0}, plan)
	full, _ := recordBlocks(e, block, lanes.Width)
	alone, _ := recordBlocks(e, block, 1)
	reversed, _ := recordBlocks(e, rev[trials-lanes.Width:], lanes.Width)
	for i := range block {
		if !equalSets(alone[i].Sets, full[i].Sets) {
			t.Fatalf("trial %d: transmitter sets alone differ from those in a full block", i)
		}
		if !equalSets(reversed[lanes.Width-1-i].Sets, full[i].Sets) {
			t.Fatalf("trial %d: transmitter sets changed when block composition reversed", i)
		}
	}
}

// recordBlocks runs seeds in blocks of width with one transmitter-
// recording observer per lane and returns each trial's recorder and
// completion round. It leaves e unobserved.
func recordBlocks(e *lanes.Engine, seeds []uint64, width int) ([]*oracle.TxRecorder, []int) {
	recs := make([]*oracle.TxRecorder, len(seeds))
	obs := make([]trace.Observer, len(seeds))
	for i := range recs {
		recs[i] = &oracle.TxRecorder{}
		obs[i] = recs[i]
	}
	out := make([]int, len(seeds))
	for lo := 0; lo < len(seeds); lo += width {
		hi := min(lo+width, len(seeds))
		e.Observe(obs[lo:hi])
		e.Run(seeds[lo:hi], out[lo:hi])
	}
	e.Observe(nil)
	return recs, out
}

func equalSets(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]int32])
}

func TestRunBlocksWidthWorkerGomaxprocsInvariance(t *testing.T) {
	g := testGraph(t, 150, 6, 5)
	p := core.NewDistributedProtocol(150, 6)
	plan := mustPlan(t, p, core.MaxRoundsFor(150))
	seeds := sweep.Seeds(200, 77)

	run := func(width, workers int) []int {
		out := make([]int, len(seeds))
		if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, width, workers, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(64, 1)
	for _, width := range []int{64, 13, 7} {
		for _, workers := range []int{1, 3, 8} {
			got := run(width, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("width=%d workers=%d: trial %d got %d want %d", width, workers, i, got[i], ref[i])
				}
			}
		}
	}
	prev := runtime.GOMAXPROCS(1)
	got1 := run(64, 0)
	runtime.GOMAXPROCS(4)
	got4 := run(64, 0)
	runtime.GOMAXPROCS(prev)
	for i := range ref {
		if got1[i] != ref[i] || got4[i] != ref[i] {
			t.Fatalf("GOMAXPROCS variance at trial %d", i)
		}
	}
}

func TestLaneBudgetAndDegenerateCases(t *testing.T) {
	// No edges: nothing beyond the source ever gets informed; every lane
	// must report the budget sentinel.
	g := testGraph(t, 12, 0, 3)
	if g.M() != 0 {
		t.Fatalf("expected empty graph, got %d edges", g.M())
	}
	p := core.NewDistributedProtocol(12, 4)
	maxRounds := 20
	plan := mustPlan(t, p, maxRounds)
	e := lanes.NewEngine(g, []int32{0}, plan)
	seeds := sweep.Seeds(5, 9)
	out := make([]int, 5)
	e.Run(seeds, out)
	for i, r := range out {
		if r != maxRounds+1 {
			t.Fatalf("lane %d: got %d, want sentinel %d", i, r, maxRounds+1)
		}
	}

	// Zero budget: the sentinel is 1, matching radio.BroadcastTimeOnContext.
	plan0 := mustPlan(t, p, 0)
	e0 := lanes.NewEngine(g, []int32{0}, plan0)
	out0 := make([]int, 2)
	e0.Run(seeds[:2], out0)
	for _, r := range out0 {
		if r != 1 {
			t.Fatalf("zero budget: got %d, want 1", r)
		}
	}

	// All nodes sources: complete at round 0.
	g2 := testGraph(t, 4, 2, 11)
	plan2 := mustPlan(t, core.NewDistributedProtocol(4, 2), 8)
	e2 := lanes.NewEngine(g2, []int32{0, 1, 2, 3}, plan2)
	out2 := make([]int, 3)
	e2.Run(seeds[:3], out2)
	for _, r := range out2 {
		if r != 0 {
			t.Fatalf("all-source run: got %d, want 0", r)
		}
	}
}

// TestLaneEngineReuse: a reused engine must produce exactly the results a
// fresh engine does, block after block.
func TestLaneEngineReuse(t *testing.T) {
	g := testGraph(t, 120, 6, 21)
	p := protocols.NewDecay(120)
	plan := mustPlan(t, p, core.MaxRoundsFor(120))
	reused := lanes.NewEngine(g, []int32{0}, plan)
	for block := 0; block < 4; block++ {
		seeds := sweep.Seeds(17, 500+uint64(block))
		got := make([]int, len(seeds))
		want := make([]int, len(seeds))
		reused.Run(seeds, got)
		lanes.NewEngine(g, []int32{0}, plan).Run(seeds, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d trial %d: reused %d, fresh %d", block, i, got[i], want[i])
			}
		}
	}
}

// TestRetarget: one engine re-aimed across plans with 0 and 1 cohort
// cutoffs, across source sets and after a canceled block, runs exactly
// what a fresh engine does — the executor's lane pool relies on it.
func TestRetarget(t *testing.T) {
	const n, d = 150, 7
	g := testGraph(t, n, d, 31)
	maxRounds := core.MaxRoundsFor(n)
	distributed := mustPlan(t, core.NewDistributedProtocol(n, d), maxRounds)
	restricted := mustPlan(t, core.NewRestrictedPoolProtocol(n, d), maxRounds)
	decay := mustPlan(t, protocols.NewDecay(n), maxRounds)
	steps := []struct {
		name     string
		plan     *lanes.Plan
		cutoffs  int // cohort planes the plan needs
		sources  []int32
		canceled bool // cancel a block mid-run before the compared one
	}{
		{"distributed", distributed, 0, []int32{0}, false},
		{"restricted-pool", restricted, 1, []int32{0}, false},
		{"restricted-pool/sources", restricted, 1, []int32{7, 90, 7}, false},
		{"decay", decay, 0, []int32{3}, false},
		{"decay/canceled", decay, 0, []int32{3}, true},
		{"restricted-pool/canceled", restricted, 1, []int32{42}, true},
	}
	e := lanes.NewEngine(g, []int32{0}, distributed)
	cutoffs := 0
	for si, st := range steps {
		// A cohort plane is 8 bytes per node: Retarget adds or drops one.
		before := e.Footprint()
		e.Retarget(st.sources, st.plan)
		grew := e.Footprint() - before
		if (st.cutoffs > cutoffs && grew < 8*n) || (st.cutoffs < cutoffs && grew > -8*n) {
			t.Errorf("%s: footprint moved by %d bytes going from %d to %d cohort planes", st.name, grew, cutoffs, st.cutoffs)
		}
		cutoffs = st.cutoffs
		seeds := sweep.Seeds(lanes.Width, 600+uint64(si))
		got := make([]int, len(seeds))
		if st.canceled {
			if err := e.RunContext(&cancelAfter{Context: context.Background(), rounds: 3}, seeds, got); !errors.Is(err, radio.ErrCanceled) {
				t.Fatalf("%s: canceled block returned %v, want ErrCanceled", st.name, err)
			}
		}
		e.Run(seeds, got)
		want := make([]int, len(seeds))
		lanes.NewEngine(g, st.sources, st.plan).Run(seeds, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: trial %d: retargeted %d, fresh %d", st.name, i, got[i], want[i])
			}
		}
	}
}

// cancelAfter is a context that reports cancellation from its given
// number of Err calls on; RunContext checks once per round.
type cancelAfter struct {
	context.Context
	rounds int
}

func (c *cancelAfter) Err() error {
	if c.rounds <= 0 {
		return context.Canceled
	}
	c.rounds--
	return nil
}

// TestNonUniformProtocolHasNoPlan: protocols without the capability (or
// with any non-uniform round) must be declined so callers fall back.
func TestNonUniformProtocolHasNoPlan(t *testing.T) {
	rr := &protocols.RoundRobin{N: 10}
	if _, ok := lanes.NewPlan(rr, 10); ok {
		t.Fatal("RoundRobin should not plan (no UniformProtocol)")
	}
	if _, ok := lanes.NewPlan(mixedProtocol{}, 10); ok {
		t.Fatal("protocol with a non-uniform round should not plan")
	}
}

type mixedProtocol struct{}

func (mixedProtocol) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	return round%2 == 0
}

func (mixedProtocol) RoundProb(round int) (float64, radio.Cohort, bool) {
	if round == 3 {
		return 0, radio.AllInformed, false // one non-uniform round poisons the plan
	}
	return 0.5, radio.AllInformed, true
}

// TestLaneVsScalarDistribution: per-trial completion rounds from the lane
// engine and the scalar sampled path are different streams but must be
// draws from the same distribution (two-sample chi-square, balanced
// pooled-quantile bins, 5-sigma acceptance like the xrand suites).
func TestLaneVsScalarDistribution(t *testing.T) {
	g := testGraph(t, 150, 8, 42)
	p := core.NewDistributedProtocol(150, 8)
	maxRounds := core.MaxRoundsFor(150)
	plan := mustPlan(t, p, maxRounds)

	const trials = 800
	seeds := sweep.Seeds(trials, 7)
	lane := make([]int, trials)
	if err := lanes.RunBlocks(context.Background(), g, []int32{0}, plan, seeds, 64, 1, lane); err != nil {
		t.Fatal(err)
	}
	scalar := make([]int, trials)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	for i, s := range seeds {
		scalar[i], _ = radio.BroadcastTimeOnContext(context.Background(), e, p, maxRounds, xrand.New(s))
	}
	chi2, df := twoSampleChiSquare(lane, scalar, 8)
	if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
		t.Fatalf("lane vs scalar completion-round distributions diverge: chi2=%.1f df=%d limit=%.1f", chi2, df, limit)
	}
}

// TestLaneVsScalarCollisionRate: per-trial collision rates measured
// through per-lane observers and through the scalar engine's observer
// come from different streams but one distribution (two-sample
// Kolmogorov–Smirnov at the 0.1% level).
func TestLaneVsScalarCollisionRate(t *testing.T) {
	const n, d, trials = 400, 12, 640
	g := testGraph(t, n, d, 81)
	p := core.NewDistributedProtocol(n, d)
	maxRounds := core.MaxRoundsFor(n)
	seeds := sweep.Seeds(trials, 82)
	rate := func(c *trace.Counters) float64 {
		return float64(c.Collisions) / float64(c.Successes+c.Collisions+c.Silent)
	}

	e := lanes.NewEngine(g, []int32{0}, mustPlan(t, p, maxRounds))
	counters := make([]trace.Counters, lanes.Width)
	obs := make([]trace.Observer, lanes.Width)
	for i := range obs {
		obs[i] = &counters[i]
	}
	e.Observe(obs)
	out := make([]int, lanes.Width)
	lane := make([]float64, 0, trials)
	for lo := 0; lo < trials; lo += lanes.Width {
		clear(counters)
		e.Run(seeds[lo:lo+lanes.Width], out)
		for i := range counters {
			lane = append(lane, rate(&counters[i]))
		}
	}

	scalar := make([]float64, trials)
	se := radio.NewEngine(g, 0, radio.StrictInformed)
	var c trace.Counters
	se.Attach(&c)
	for i, s := range seeds {
		c = trace.Counters{}
		radio.BroadcastTimeOnContext(context.Background(), se, p, maxRounds, xrand.New(s))
		scalar[i] = rate(&c)
	}

	// 1.949 is the two-sample KS critical coefficient at alpha = 0.001.
	if ks, limit := ksStatistic(lane, scalar), 1.949*math.Sqrt(2.0/trials); ks > limit {
		t.Fatalf("lane vs scalar collision-rate distributions diverge: D=%.3f, limit %.3f", ks, limit)
	}
}

// ksStatistic returns the two-sample Kolmogorov–Smirnov statistic: the
// largest gap between the samples' empirical distribution functions.
func ksStatistic(a, b []float64) float64 {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// twoSampleChiSquare bins the pooled samples into (at most) `bins`
// balanced quantile bins and returns the two-sample chi-square statistic
// with its degrees of freedom.
func twoSampleChiSquare(a, b []int, bins int) (chi2 float64, df int) {
	pooled := make([]int, 0, len(a)+len(b))
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	sort.Ints(pooled)
	var edges []int
	for i := 1; i < bins; i++ {
		e := pooled[i*len(pooled)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	binOf := func(v int) int {
		lo := 0
		for lo < len(edges) && v >= edges[lo] {
			lo++
		}
		return lo
	}
	nb := len(edges) + 1
	ca, cb := make([]float64, nb), make([]float64, nb)
	for _, v := range a {
		ca[binOf(v)]++
	}
	for _, v := range b {
		cb[binOf(v)]++
	}
	na, nbTot := float64(len(a)), float64(len(b))
	tot := na + nbTot
	for i := 0; i < nb; i++ {
		pool := ca[i] + cb[i]
		if pool == 0 {
			continue
		}
		ea := na * pool / tot
		eb := nbTot * pool / tot
		chi2 += (ca[i]-ea)*(ca[i]-ea)/ea + (cb[i]-eb)*(cb[i]-eb)/eb
	}
	return chi2, nb - 1
}

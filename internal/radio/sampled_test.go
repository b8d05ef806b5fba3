package radio

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// uniformTest is a minimal UniformProtocol: flood for Flood rounds, then
// transmit with probability Q. PanicOnTransmit proves the fast path is
// taken — if the engine ever falls back to per-node Transmit calls while
// it is set, the test dies loudly.
type uniformTest struct {
	Flood           int
	Q               float64
	Pool            Cohort
	UsePool         bool
	PanicOnTransmit bool
}

func (p uniformTest) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	if p.PanicOnTransmit {
		panic("uniformTest.Transmit called on the sampled path")
	}
	if round <= p.Flood {
		return true
	}
	return rng.Bernoulli(p.Q)
}

func (p uniformTest) RoundProb(round int) (float64, Cohort, bool) {
	cohort := AllInformed
	if p.UsePool {
		cohort = p.Pool
	}
	if round <= p.Flood {
		return 1, cohort, true
	}
	return p.Q, cohort, true
}

func connectedGnp(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Fatal("no connected sample")
	}
	return g
}

// TestSampledPathUsed: a uniform protocol whose Transmit panics must run to
// completion — every round goes through binomial sampling, never through
// per-node calls. Wrapped in struct{ Protocol }, which hides RoundProb,
// the same protocol must panic, proving the wrapper reaches the per-node
// path.
func TestSampledPathUsed(t *testing.T) {
	g := connectedGnp(t, 500, 12, 1)
	p := uniformTest{Flood: 2, Q: 1.0 / 12, PanicOnTransmit: true}
	res := runFresh(g, 0, p, 5000, xrand.New(3))
	if !res.Completed {
		t.Fatalf("sampled run incomplete: %+v", res)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a protocol hiding RoundProb did not call Transmit")
		}
	}()
	runFresh(g, 0, struct{ Protocol }{p}, 5000, xrand.New(3))
}

// TestSampleTransmittersCohortSubset: across many rounds and both cohort
// kinds, every sampled transmitter set must be duplicate-free and a subset
// of exactly the declared cohort.
func TestSampleTransmittersCohortSubset(t *testing.T) {
	g := connectedGnp(t, 400, 10, 2)
	rng := xrand.New(7)
	e := NewEngine(g, 0, StrictInformed)
	cutoff := int32(3)
	cohorts := []struct {
		name string
		c    Cohort
	}{
		{"all-informed", AllInformed},
		{"informed-by-3", InformedBy(cutoff)},
	}
	// Advance the engine a few rounds (flooding) so both cohorts are
	// non-trivial, then sample repeatedly at several probabilities.
	p := uniformTest{Flood: 6, Q: 0.1}
	seen := make(map[int32]bool)
	for round := 1; round <= 6; round++ {
		tx := SampleTransmitters(e.eligible(AllInformed), 1, rng)
		if _, err := e.Round(tx); err != nil {
			t.Fatal(err)
		}
		e.appendEligible(e.newly)
	}
	_ = p
	for _, co := range cohorts {
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9} {
			for trial := 0; trial < 50; trial++ {
				tx := SampleTransmitters(e.eligible(co.c), q, rng)
				for k := range seen {
					delete(seen, k)
				}
				for _, v := range tx {
					if seen[v] {
						t.Fatalf("%s q=%g: duplicate transmitter %d", co.name, q, v)
					}
					seen[v] = true
					if !e.Informed(v) {
						t.Fatalf("%s q=%g: uninformed transmitter %d", co.name, q, v)
					}
					if !co.c.Contains(e.InformedAt(v)) {
						t.Fatalf("%s q=%g: node %d (informedAt %d) outside cohort",
							co.name, q, v, e.InformedAt(v))
					}
				}
			}
			// The eligible list must still be exactly the cohort (the
			// partial shuffle permutes, never drops or duplicates).
			want := 0
			for v := 0; v < g.N(); v++ {
				if co.c.Contains(e.InformedAt(int32(v))) {
					want++
				}
			}
			if got := len(e.eligible(co.c)); got != want {
				t.Fatalf("%s: eligible list has %d members, cohort has %d", co.name, got, want)
			}
		}
	}
}

// TestSampledTransmitterCountsBinomial: with a constant eligible set, the
// per-round transmitter counts must follow Binomial(n_elig, q). The
// construction: every node except one edgeless holdout starts informed, so
// the run never completes and the all-informed cohort stays fixed at
// n - 1 members for all rounds. Chi-square over binned counts at
// significance 0.001 (deterministic seed, so no flakes: the test fails
// only if the sampler is actually wrong or the seed is astronomically
// unlucky — in which case bump the seed, not the threshold).
func TestSampledTransmitterCountsBinomial(t *testing.T) {
	const nElig = 40
	const q = 0.3
	const rounds = 4000
	// nElig nodes in a path, plus one isolated holdout that can never be
	// informed.
	b := graph.NewBuilder(nElig + 1)
	for i := 0; i < nElig-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	sources := make([]int32, nElig)
	for i := range sources {
		sources[i] = int32(i)
	}
	e := NewEngineMulti(g, sources, StrictInformed)
	var rec trace.Recorder
	e.Attach(&rec)
	e.RunProtocolContext(context.Background(), uniformTest{Q: q, PanicOnTransmit: true}, rounds, xrand.New(11))
	if len(rec.Records) != rounds {
		t.Fatalf("expected %d rounds, got %d", rounds, len(rec.Records))
	}

	// Observed counts.
	obs := make([]int, nElig+1)
	for _, r := range rec.Records {
		if r.Transmitters < 0 || r.Transmitters > nElig {
			t.Fatalf("transmitter count %d outside [0,%d]", r.Transmitters, nElig)
		}
		obs[r.Transmitters]++
	}

	// Binomial(nElig, q) pmf via logs.
	pmf := make([]float64, nElig+1)
	lgamma := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	for k := 0; k <= nElig; k++ {
		lp := lgamma(float64(nElig+1)) - lgamma(float64(k+1)) - lgamma(float64(nElig-k+1)) +
			float64(k)*math.Log(q) + float64(nElig-k)*math.Log(1-q)
		pmf[k] = math.Exp(lp)
	}

	// Bin adjacent counts until every bin expects >= 5 observations.
	var obsBin, expBin []float64
	co, ce := 0.0, 0.0
	for k := 0; k <= nElig; k++ {
		co += float64(obs[k])
		ce += pmf[k] * rounds
		if ce >= 5 {
			obsBin = append(obsBin, co)
			expBin = append(expBin, ce)
			co, ce = 0, 0
		}
	}
	if ce > 0 { // fold the tail into the last bin
		obsBin[len(obsBin)-1] += co
		expBin[len(expBin)-1] += ce
	}
	chi2 := 0.0
	for i := range obsBin {
		d := obsBin[i] - expBin[i]
		chi2 += d * d / expBin[i]
	}
	df := float64(len(obsBin) - 1)
	// Wilson–Hilferty critical value at alpha = 0.001 (z = 3.09).
	crit := df * math.Pow(1-2/(9*df)+3.09*math.Sqrt(2/(9*df)), 3)
	if chi2 > crit {
		t.Fatalf("chi-square %.2f > critical %.2f (df %.0f): transmitter counts not Binomial(%d, %g)",
			chi2, crit, df, nElig, q)
	}
}

// TestBroadcastTimeDistributionSampledVsPerNode: the sampled and per-node
// paths draw from the same broadcast-time distribution. Compared via
// median and inter-quartile overlap over independent trials (the exact
// per-seed values differ by design — only the distributions agree).
func TestBroadcastTimeDistributionSampledVsPerNode(t *testing.T) {
	const n = 600
	const d = 12.0
	g := connectedGnp(t, n, d, 4)
	const trials = 61
	const budget = 10000
	p := uniformTest{Flood: 3, Q: 1 / d}
	perNode := ProtocolFunc(p.Transmit) // hides RoundProb: forces per-node
	sampled := make([]int, trials)
	direct := make([]int, trials)
	for i := 0; i < trials; i++ {
		sampled[i] = timeFresh(g, 0, p, budget, xrand.New(uint64(100+i)))
		direct[i] = timeFresh(g, 0, perNode, budget, xrand.New(uint64(9000+i)))
	}
	sort.Ints(sampled)
	sort.Ints(direct)
	if sampled[trials-1] > budget || direct[trials-1] > budget {
		t.Fatalf("incomplete runs: sampled max %d, per-node max %d", sampled[trials-1], direct[trials-1])
	}
	ms, md := sampled[trials/2], direct[trials/2]
	if ms < md/2 || ms > md*2 {
		t.Fatalf("sampled median %d vs per-node median %d: distributions diverge", ms, md)
	}
	// Quartile sanity: the sampled quartiles must land within the full
	// per-node range (and vice versa) — a sampler that is systematically
	// biased fails this even when medians accidentally agree.
	q1s, q3s := sampled[trials/4], sampled[3*trials/4]
	if q1s > direct[trials-1] || q3s < direct[0] {
		t.Fatalf("sampled IQR [%d,%d] disjoint from per-node range [%d,%d]",
			q1s, q3s, direct[0], direct[trials-1])
	}
}

// TestSampledRestrictedCohortMatchesPerNode: a protocol restricting its
// pool to early-informed nodes must inform the same set of nodes as its
// per-node twin on a deterministic regime (q = 1 flood by the cohort only),
// where both paths are randomness-free and must agree exactly.
func TestSampledRestrictedCohortMatchesPerNode(t *testing.T) {
	g := gen.Path(30)
	cutoff := int32(5)
	// Deterministic: cohort members always transmit (q = 1); per-node twin
	// implements the identical rule through Transmit.
	coP := uniformTest{Flood: 0, Q: 1, UsePool: true, Pool: InformedBy(cutoff)}
	pn := ProtocolFunc(func(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
		return informedAt <= cutoff
	})
	a := runFresh(g, 0, coP, 100, xrand.New(1))
	b := runFresh(g, 0, pn, 100, xrand.New(1))
	if a.Rounds != b.Rounds || a.Informed != b.Informed || a.Stats != b.Stats {
		t.Fatalf("restricted cohort diverges from per-node twin:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("InformedAt[%d]: sampled %d, per-node %d", v, a.InformedAt[v], b.InformedAt[v])
		}
	}
	// On a path with cutoff c, only nodes informed by round c transmit, so
	// the wave stalls: exactly nodes 0..2c (roughly) get informed, not all.
	if a.Completed {
		t.Fatal("restricted pool unexpectedly completed on a long path")
	}
}

// TestSampledNilObserverAllocs: the sampled fast path on a reused engine
// must allocate nothing per trial, like the per-node path (the eligible
// lists retain their capacity across Reset).
func TestSampledNilObserverAllocs(t *testing.T) {
	g := connectedGnp(t, 2000, 15, 5)
	e := NewEngine(g, 0, StrictInformed)
	// Box the protocol once: passing the struct value per call would
	// charge the interface conversion to the engine.
	var p Protocol = uniformTest{Flood: 2, Q: 1.0 / 15, PanicOnTransmit: true}
	rng := xrand.New(1)
	timeOn(e, p, 5000, rng) // warm-up sizes the eligible lists
	avg := testing.AllocsPerRun(20, func() {
		timeOn(e, p, 5000, rng)
	})
	if avg != 0 {
		t.Fatalf("sampled BroadcastTimeOnContext allocates %.1f per trial, want 0", avg)
	}
}

// TestSampledObserverRecordShape: records emitted on the sampled path have
// the same shape as per-node records — per-round classes partition the
// node set and cumulative counts match the result.
func TestSampledObserverRecordShape(t *testing.T) {
	g := connectedGnp(t, 800, 10, 6)
	var rec trace.Recorder
	e := NewEngine(g, 0, StrictInformed)
	e.Attach(&rec)
	res := runOn(e, uniformTest{Flood: 2, Q: 0.1, PanicOnTransmit: true}, 5000, xrand.New(2))
	if !res.Completed {
		t.Fatalf("incomplete: %+v", res)
	}
	n := g.N()
	cum := 1
	for i, r := range rec.Records {
		if r.Round != i+1 {
			t.Fatalf("record %d has round %d", i, r.Round)
		}
		if r.Transmitters+r.Successes+r.Collisions+r.Silent != n {
			t.Fatalf("round %d: classes sum to %d, want %d", r.Round,
				r.Transmitters+r.Successes+r.Collisions+r.Silent, n)
		}
		cum += r.NewlyInformed
		if r.Informed != cum {
			t.Fatalf("round %d: cumulative informed %d, record says %d", r.Round, cum, r.Informed)
		}
	}
	if cum != res.Informed {
		t.Fatalf("trace accumulates %d informed, result says %d", cum, res.Informed)
	}
}

package oracle

// Metamorphic invariants: properties that must hold across related runs
// without knowing the "right" answer for either — relabeling
// equivariance, informed-set monotonicity, and engine-reuse transparency.
// These catch bug classes the differential suites cannot (a bug shared
// by engine and oracle still breaks equivariance; scratch leaking across
// Reset only shows up when an engine is reused).

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// relabel returns g with vertices renamed by the permutation perm
// (perm[old] = new), plus the permutation applied to a vertex list.
func relabel(g *graph.Graph, perm []int32) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				b.AddEdge(perm[v], perm[w])
			}
		}
	}
	return b.Build()
}

func applyPerm(perm []int32, vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = perm[v]
	}
	return out
}

// TestMetamorphicRelabeling checks vertex-relabeling equivariance: a
// schedule replayed on a relabeled graph with relabeled transmitter sets
// must produce the relabeled outcome. The radio model has no notion of
// vertex identity, so any sensitivity to labels is an indexing bug (in
// CSR layout, hit counting, or newly-informed collection).
func TestMetamorphicRelabeling(t *testing.T) {
	base := xrand.New(diffBaseSeed + 10)
	for i := 0; i < diffCases(120); i++ {
		crng := base.Derive(uint64(i))
		g, src, _ := randomCase(crng)
		n := g.N()
		perm := crng.Perm(n)

		s := &radio.Schedule{}
		rounds := 1 + crng.Intn(10)
		for r := 0; r < rounds; r++ {
			s.Sets = append(s.Sets, crng.Sample(n, crng.Intn(n+1)))
		}
		// MagicTransmitters: every set is valid, so the runs never abort
		// and the full schedule's outcome is compared.
		res, err := radio.ExecuteScheduleOnContext(context.Background(), radio.NewEngine(g, src, radio.MagicTransmitters), s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}

		g2 := relabel(g, perm)
		s2 := &radio.Schedule{}
		for _, set := range s.Sets {
			s2.Sets = append(s2.Sets, applyPerm(perm, set))
		}
		res2, err := radio.ExecuteScheduleOnContext(context.Background(), radio.NewEngine(g2, perm[src], radio.MagicTransmitters), s2)
		if err != nil {
			t.Fatalf("case %d: relabeled run: %v", i, err)
		}

		if res.Completed != res2.Completed || res.Rounds != res2.Rounds ||
			res.Informed != res2.Informed || res.Stats != res2.Stats {
			t.Fatalf("case %d (%v): relabeling changed aggregate outcome:\noriginal %+v\nrelabeled %+v",
				i, g, res, res2)
		}
		for v := 0; v < n; v++ {
			if res.InformedAt[v] != res2.InformedAt[perm[v]] {
				t.Fatalf("case %d (%v): InformedAt not equivariant at %d->%d: %d vs %d",
					i, g, v, perm[v], res.InformedAt[v], res2.InformedAt[perm[v]])
			}
		}
	}
}

// TestMetamorphicMonotonicity checks per-round invariants on protocol
// runs via the recorder: the informed count never decreases, grows by
// exactly NewlyInformed each round, the source set is never forgotten,
// and each round's listeners partition into successes + collisions +
// silent.
func TestMetamorphicMonotonicity(t *testing.T) {
	base := xrand.New(diffBaseSeed + 11)
	for i := 0; i < diffCases(120); i++ {
		crng := base.Derive(uint64(i))
		g, src, seed := randomCase(crng)
		n := g.N()
		p, name := randomProtocol(crng, n, true)

		e := radio.NewEngine(g, src, radio.StrictInformed)
		if crng.Bool() {
			p = perNode(p)
		}
		rec := &trace.Recorder{}
		e.Attach(rec)
		res := runEngine(e, p, maxRoundsFor(n), xrand.New(seed))

		prev := 1 // the single source
		for ri, r := range rec.Records {
			if r.Informed < prev {
				t.Fatalf("case %d (%v proto=%s seed=%#x): informed count shrank at round %d: %d -> %d",
					i, g, name, seed, r.Round, prev, r.Informed)
			}
			if r.Informed != prev+r.NewlyInformed {
				t.Fatalf("case %d (proto=%s): round %d: informed %d != prev %d + newly %d",
					i, name, r.Round, r.Informed, prev, r.NewlyInformed)
			}
			listeners := n - r.Transmitters
			if r.Successes+r.Collisions+r.Silent != listeners {
				t.Fatalf("case %d (proto=%s): round %d: %d+%d+%d != %d listeners",
					i, name, r.Round, r.Successes, r.Collisions, r.Silent, listeners)
			}
			if r.NewlyInformed > r.Successes {
				t.Fatalf("case %d (proto=%s): round %d: newly %d > successes %d",
					i, name, r.Round, r.NewlyInformed, r.Successes)
			}
			if r.Round != ri+1 {
				t.Fatalf("case %d: round numbering gap: record %d has Round %d", i, ri, r.Round)
			}
			prev = r.Informed
		}
		if res.InformedAt[src] != 0 {
			t.Fatalf("case %d: source forgot the message: informedAt[src]=%d", i, res.InformedAt[src])
		}
		if res.Informed != prev {
			t.Fatalf("case %d: result informed %d != last record %d", i, res.Informed, prev)
		}
	}
}

// TestMetamorphicEngineReuse checks that a reused engine (Reset between
// runs) is indistinguishable from a fresh engine on the same inputs —
// the contract that makes sweep loops sound. Multi-source engines are
// included: Reset must restore the full initial informed set, not just
// the primary source (regression: extra sources used to vanish after the
// first Reset).
func TestMetamorphicEngineReuse(t *testing.T) {
	base := xrand.New(diffBaseSeed + 12)
	for i := 0; i < diffCases(120); i++ {
		crng := base.Derive(uint64(i))
		g, _, seed := randomCase(crng)
		n := g.N()
		k := 1 + crng.Intn(3)
		if k > n {
			k = n
		}
		sources := crng.Sample(n, k)
		p, name := randomProtocol(crng, n, true)
		mr := maxRoundsFor(n)

		reused := radio.NewEngineMulti(g, sources, radio.StrictInformed)
		hidden := crng.Bool()
		if hidden {
			p = perNode(p)
		}
		// Dirty the engine with a throwaway run, then Reset and rerun.
		runEngine(reused, p, mr, xrand.New(seed^0xABCD))
		reused.Reset()
		got := runEngine(reused, p, mr, xrand.New(seed))

		fresh := radio.NewEngineMulti(g, sources, radio.StrictInformed)
		want := runEngine(fresh, p, mr, xrand.New(seed))

		if d := Compare(got, want); d != "" {
			t.Fatalf("case %d (%v sources=%v proto=%s perNode=%v seed=%#x): reused engine diverges from fresh:\n%s",
				i, g, sources, name, hidden, seed, d)
		}
	}
}

// TestMultiSourceResetRegression pins the multi-source Reset bug
// directly: after a Reset, every initial source must still be informed
// at round 0 (Reset used to restore only the primary source, silently
// turning a multi-source engine single-source on reuse).
func TestMultiSourceResetRegression(t *testing.T) {
	g := gen.Path(5)
	e := radio.NewEngineMulti(g, []int32{0, 4}, radio.StrictInformed)
	if _, err := e.Round([]int32{0, 4}); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if got := e.InformedCount(); got != 2 {
		t.Fatalf("after Reset: %d informed nodes, want both sources", got)
	}
	for _, s := range []int32{0, 4} {
		if e.InformedAt(s) != 0 {
			t.Fatalf("after Reset: source %d informedAt=%d, want 0", s, e.InformedAt(s))
		}
	}
	// Both sources must actually transmit again: a second identical round
	// must reproduce the first run's outcome.
	newly, err := e.Round([]int32{0, 4})
	if err != nil {
		t.Fatalf("sources lost after Reset: %v", err)
	}
	if len(newly) != 2 { // 0 informs 1, 4 informs 3; node 2 stays dark
		t.Fatalf("after Reset, round informed %v, want the two inner neighbours", newly)
	}
}

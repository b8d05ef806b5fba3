package radio

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// referenceRound is a deliberately naive O(n²) implementation of the radio
// round semantics, used as a differential oracle for the optimized engine:
// given the informed set and a transmitter set, return the set of nodes
// informed after the round.
func referenceRound(g *graph.Graph, informed map[int32]bool, transmitters []int32) map[int32]bool {
	tx := make(map[int32]bool)
	for _, v := range transmitters {
		tx[v] = true
	}
	next := make(map[int32]bool, len(informed))
	for v := range informed {
		next[v] = true
	}
	for w := int32(0); int(w) < g.N(); w++ {
		if tx[w] {
			continue // transmitting nodes do not listen
		}
		count := 0
		for _, nb := range g.Neighbors(w) {
			if tx[nb] {
				count++
			}
		}
		if count == 1 {
			next[w] = true
		}
	}
	return next
}

func TestEngineMatchesReferenceImplementation(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(40)
		g := gen.Gnp(n, 0.15+0.5*rng.Float64(), rng)
		e := NewEngine(g, 0, MagicTransmitters)
		informed := map[int32]bool{0: true}
		for round := 0; round < 12; round++ {
			k := 1 + rng.Intn(n)
			tx := rng.Sample(n, k)
			want := referenceRound(g, informed, tx)
			if _, err := e.Round(tx); err != nil {
				t.Fatal(err)
			}
			// Magic policy: uninformed transmitters still transmit, but
			// they do not become informed by transmitting. The reference
			// treats informedness identically: transmitters retain their
			// previous status.
			for v := int32(0); int(v) < n; v++ {
				if want[v] != e.Informed(v) {
					t.Fatalf("trial %d round %d: node %d engine=%v reference=%v (tx=%v)",
						trial, round, v, e.Informed(v), want[v], tx)
				}
			}
			informed = want
		}
	}
}

func TestEngineStrictMatchesReference(t *testing.T) {
	// Same differential test under the physical policy: transmitters are
	// drawn from the informed set only.
	rng := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(40)
		g := gen.Gnp(n, 0.2+0.4*rng.Float64(), rng)
		e := NewEngine(g, 0, StrictInformed)
		informed := map[int32]bool{0: true}
		for round := 0; round < 15; round++ {
			// Pick a random subset of the informed set.
			var pool []int32
			for v := range informed {
				pool = append(pool, v)
			}
			// Deterministic order for reproducibility.
			for i := 1; i < len(pool); i++ {
				for j := i; j > 0 && pool[j] < pool[j-1]; j-- {
					pool[j], pool[j-1] = pool[j-1], pool[j]
				}
			}
			tx := rng.SubsetEach(nil, pool, 0.5)
			want := referenceRound(g, informed, tx)
			if _, err := e.Round(tx); err != nil {
				t.Fatal(err)
			}
			for v := int32(0); int(v) < n; v++ {
				if want[v] != e.Informed(v) {
					t.Fatalf("trial %d round %d: node %d engine=%v reference=%v",
						trial, round, v, e.Informed(v), want[v])
				}
			}
			informed = want
		}
	}
}

func TestInformedSetMonotoneProperty(t *testing.T) {
	rng := xrand.New(13)
	const n = 100
	g := gen.Gnp(n, 0.1, rng)
	e := NewEngine(g, 0, MagicTransmitters)
	prevCount := e.InformedCount()
	prev := make([]bool, n)
	prev[0] = true
	for round := 0; round < 50; round++ {
		tx := rng.Sample(n, 1+rng.Intn(10))
		if _, err := e.Round(tx); err != nil {
			t.Fatal(err)
		}
		if e.InformedCount() < prevCount {
			t.Fatalf("informed count decreased at round %d", round)
		}
		prevCount = e.InformedCount()
		for v := 0; v < n; v++ {
			if prev[v] && !e.Informed(int32(v)) {
				t.Fatalf("node %d lost the message", v)
			}
			prev[v] = e.Informed(int32(v))
		}
	}
}

func TestInformedAtConsistencyProperty(t *testing.T) {
	rng := xrand.New(17)
	const n = 200
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, 12), rng, 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(0.08)
	})
	res := runFresh(g, 0, p, 5000, rng)
	if !res.Completed {
		t.Skip("unlucky run")
	}
	// informedAt[src] == 0; all others in [1, rounds]; and a node's
	// informing round is at least its BFS distance.
	dist := graph.Distances(g, 0)
	for v, at := range res.InformedAt {
		if v == 0 {
			if at != 0 {
				t.Fatalf("source informedAt = %d", at)
			}
			continue
		}
		if at < 1 || int(at) > res.Rounds {
			t.Fatalf("informedAt[%d] = %d out of [1,%d]", v, at, res.Rounds)
		}
		if at < dist[v] {
			t.Fatalf("node %d informed at round %d, below BFS distance %d", v, at, dist[v])
		}
	}
}

func TestScheduleReplayDeterministic(t *testing.T) {
	rng := xrand.New(23)
	const n = 150
	g := gen.Gnp(n, 0.08, rng)
	sets := make([][]int32, 20)
	for i := range sets {
		sets[i] = rng.Sample(n, 1+rng.Intn(20))
	}
	s := &Schedule{Sets: sets}
	a, err := replayFresh(g, 0, s, MagicTransmitters)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayFresh(g, 0, s, MagicTransmitters)
	if err != nil {
		t.Fatal(err)
	}
	if a.Informed != b.Informed || a.Rounds != b.Rounds {
		t.Fatal("replay nondeterministic")
	}
	for i := range a.InformedAt {
		if a.InformedAt[i] != b.InformedAt[i] {
			t.Fatal("replay nondeterministic in informedAt")
		}
	}
}

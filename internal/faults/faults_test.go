package faults

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestCrashZeroKeepsEverything(t *testing.T) {
	g := gen.Complete(20)
	sc := Crash(g, 3, 0, xrand.New(1))
	if sc.CrashedCount != 0 || len(sc.Survivors) != 20 {
		t.Fatalf("q=0 crashed %d", sc.CrashedCount)
	}
	if sc.SrcNew < 0 || sc.Survivors[sc.SrcNew] != 3 {
		t.Fatal("source lost under q=0")
	}
	if sc.Sub.M() != g.M() {
		t.Fatal("edges lost under q=0")
	}
}

func TestCrashProtectsSource(t *testing.T) {
	g := gen.Complete(30)
	for seed := uint64(0); seed < 10; seed++ {
		sc := Crash(g, 7, 0.95, xrand.New(seed))
		if sc.SrcNew < 0 {
			t.Fatal("source crashed despite protection")
		}
		if sc.Survivors[sc.SrcNew] != 7 {
			t.Fatal("source id mangled")
		}
	}
}

func TestCrashRate(t *testing.T) {
	g := gen.Complete(2000)
	sc := Crash(g, 0, 0.3, xrand.New(2))
	frac := float64(len(sc.Survivors)) / 2000
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("survivor fraction %v, want ~0.7", frac)
	}
}

func TestCrashAllButSource(t *testing.T) {
	g := gen.Complete(10)
	sc := Crash(g, 0, 1, xrand.New(3))
	if len(sc.Survivors) != 1 || sc.CrashedCount != 9 {
		t.Fatalf("q=1 survivors %v", sc.Survivors)
	}
	if sc.ReachableFromSource() != 1 {
		t.Fatalf("reachable = %d", sc.ReachableFromSource())
	}
}

func TestReachableFromSource(t *testing.T) {
	// Path 0-1-2-3-4: crash node 2 manually via a q=1 pattern is hard to
	// force; instead verify on an explicitly built scenario.
	g := gen.Path(5)
	sub, orig := g.Subgraph([]int32{0, 1, 3, 4})
	sc := &Scenario{Survivors: orig, Sub: sub, SrcNew: 0, CrashedCount: 1}
	if got := sc.ReachableFromSource(); got != 2 {
		t.Fatalf("reachable across the cut = %d, want 2 (nodes 0,1)", got)
	}
}

func TestBroadcastUnderFaultsCompletesOnReachable(t *testing.T) {
	const n = 2000
	d := 3 * math.Log(n)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(4), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	rng := xrand.New(5)
	for _, q := range []float64{0.1, 0.3, 0.5} {
		sc := Crash(g, 0, q, rng)
		reach := sc.ReachableFromSource()
		dSurv := d * (1 - q)
		p := core.NewDistributedProtocol(sc.Sub.N(), dSurv)
		res, _ := exec.Run(context.Background(), &exec.Request{Graph: sc.Sub, Sources: []int32{sc.SrcNew}, Protocol: p, MaxRounds: 4 * core.MaxRoundsFor(n)}, rng)
		if res.Informed < reach {
			t.Fatalf("q=%v: informed %d < reachable %d", q, res.Informed, reach)
		}
	}
}

func TestCrashDeterministic(t *testing.T) {
	g := gen.Gnp(500, 0.02, xrand.New(6))
	a := Crash(g, 0, 0.4, xrand.New(7))
	b := Crash(g, 0, 0.4, xrand.New(7))
	if len(a.Survivors) != len(b.Survivors) {
		t.Fatal("crash pattern not deterministic")
	}
	for i := range a.Survivors {
		if a.Survivors[i] != b.Survivors[i] {
			t.Fatal("crash pattern not deterministic")
		}
	}
}

func TestScenarioSubgraphIsInduced(t *testing.T) {
	g := gen.Complete(12)
	sc := Crash(g, 0, 0.5, xrand.New(8))
	k := sc.Sub.N()
	if sc.Sub.M() != k*(k-1)/2 {
		t.Fatalf("induced subgraph of K12 not complete: n=%d m=%d", k, sc.Sub.M())
	}
	_ = graph.IsConnected(sc.Sub)
}

// TestCrashDegenerateRates pins Crash's handling of crash rates outside
// (0,1): the scenario must be deterministic, consume no randomness, and
// never leave the protected source crashed. A NaN rate used to fall
// through to per-node Bernoulli draws — crashing nobody but consuming
// n−1 draws, so every seeded result downstream of the call shifted.
func TestCrashDegenerateRates(t *testing.T) {
	g := gen.Complete(10)
	cases := []struct {
		name      string
		q         float64
		survivors int
	}{
		{"negative", -1, 10},
		{"zero", 0, 10},
		{"one", 1, 1},
		{"above-one", 1.5, 1},
		{"+inf", math.Inf(1), 1},
		{"-inf", math.Inf(-1), 10},
		{"nan", math.NaN(), 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(42)
			sc := Crash(g, 3, tc.q, rng)
			if len(sc.Survivors) != tc.survivors {
				t.Fatalf("q=%v: %d survivors, want %d", tc.q, len(sc.Survivors), tc.survivors)
			}
			if sc.CrashedCount != 10-tc.survivors {
				t.Fatalf("q=%v: CrashedCount=%d, want %d", tc.q, sc.CrashedCount, 10-tc.survivors)
			}
			if sc.SrcNew < 0 || sc.Survivors[sc.SrcNew] != 3 {
				t.Fatalf("q=%v: protected source crashed (SrcNew=%d)", tc.q, sc.SrcNew)
			}
			// Degenerate rates must not consume randomness: the rng must
			// still produce the same first draw as a fresh one.
			if got, want := rng.Uint64(), xrand.New(42).Uint64(); got != want {
				t.Fatalf("q=%v consumed rng draws: next=%d, fresh=%d", tc.q, got, want)
			}
		})
	}
}

// TestCrashNaNMatchesZero pins NaN ≡ q=0 including the rng stream: a
// run whose crash rate parses to NaN must reproduce the q=0 run exactly.
func TestCrashNaNMatchesZero(t *testing.T) {
	g := gen.Gnp(30, 0.2, xrand.New(5))
	a := Crash(g, 0, math.NaN(), xrand.New(9))
	b := Crash(g, 0, 0, xrand.New(9))
	if len(a.Survivors) != len(b.Survivors) || a.CrashedCount != b.CrashedCount {
		t.Fatal("NaN crash rate diverges from q=0")
	}
}

package protocols

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func connected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Fatalf("no connected sample n=%d d=%v", n, d)
	}
	return g
}

func TestDecayCompletesOnGnp(t *testing.T) {
	const n = 2000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 1)
	rng := xrand.New(2)
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: NewDecay(n), MaxRounds: 4000}, rng)
	if !res.Completed {
		t.Fatalf("decay incomplete: %d/%d", res.Informed, n)
	}
}

func TestDecayEpochRates(t *testing.T) {
	d := &Decay{Phases: 4}
	rng := xrand.New(3)
	// Round 1 of each epoch: probability 1.
	for _, round := range []int{1, 5, 9} {
		if !d.Transmit(0, round, 0, rng) {
			t.Fatalf("round %d (k=0) must transmit", round)
		}
	}
	// Round 4 (k=3): probability 1/8.
	hits := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if d.Transmit(0, 4, 0, rng) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.125) > 0.01 {
		t.Fatalf("k=3 rate %v, want 1/8", rate)
	}
}

func TestNewDecayPhases(t *testing.T) {
	if d := NewDecay(1024); d.Phases < 10 || d.Phases > 11 {
		t.Fatalf("Phases for n=1024: %d", d.Phases)
	}
	if d := NewDecay(1); d.Phases < 1 {
		t.Fatal("Phases must be at least 1")
	}
}

func TestAlohaCompletesOnGnp(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 4)
	rng := xrand.New(5)
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: NewAloha(d), MaxRounds: 5000}, rng)
	if !res.Completed {
		t.Fatalf("aloha incomplete: %d/%d", res.Informed, n)
	}
}

func TestAlohaRate(t *testing.T) {
	a := NewAloha(10)
	if a.P != 0.1 {
		t.Fatalf("P = %v", a.P)
	}
	if a := NewAloha(0.5); a.P != 1 {
		t.Fatalf("degenerate degree not clamped: %v", a.P)
	}
}

func TestFloodDeadlocksOnGnp(t *testing.T) {
	// On a dense-enough random graph, flooding stalls almost immediately:
	// after round 2 most uninformed nodes have many informed neighbours.
	const n = 500
	g := connected(t, n, 20, 6)
	rng := xrand.New(7)
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: Flood{}, MaxRounds: 300}, rng)
	if res.Completed {
		t.Fatal("deterministic flooding should not complete on G(n,p)")
	}
}

func TestRoundRobinAlwaysCompletes(t *testing.T) {
	const n = 200
	g := connected(t, n, 10, 8)
	rng := xrand.New(9)
	rr := &RoundRobin{N: n}
	diam := graph.Diameter(g)
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: rr, MaxRounds: n * (diam + 2)}, rng)
	if !res.Completed {
		t.Fatalf("round robin incomplete: %d/%d", res.Informed, n)
	}
	if res.Rounds > n*(diam+1) {
		t.Fatalf("round robin took %d rounds, above n(D+1)=%d", res.Rounds, n*(diam+1))
	}
}

func TestRoundRobinNoCollisions(t *testing.T) {
	const n = 100
	g := connected(t, n, 8, 10)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	rr := &RoundRobin{N: n}
	rng := xrand.New(11)
	var tx []int32
	for r := 1; r <= 3*n && !e.Done(); r++ {
		tx = tx[:0]
		for v := int32(0); int(v) < n; v++ {
			if e.Informed(v) && rr.Transmit(v, r, e.InformedAt(v), rng) {
				tx = append(tx, v)
			}
		}
		if len(tx) > 1 {
			t.Fatalf("round %d has %d transmitters", r, len(tx))
		}
		if _, err := e.Round(tx); err != nil {
			t.Fatal(err)
		}
	}
	if c := e.Counters().Collisions; c != 0 {
		t.Fatalf("round robin suffered %d collisions", c)
	}
}

func TestPaperProtocolBeatsDecay(t *testing.T) {
	// E5 in miniature: on G(n, 2 ln n / n) the paper's protocol should be
	// no slower than Decay (usually ~log-factor faster). Compare medians
	// over a few trials.
	const n = 4000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 12)
	med := func(p radio.Protocol) int {
		var times []int
		for trial := 0; trial < 5; trial++ {
			rng := xrand.New(100 + uint64(trial))
			r, _ := exec.Time(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: 5000}, rng)
			times = append(times, r)
		}
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		return times[len(times)/2]
	}
	paper := med(core.NewDistributedProtocol(n, d))
	decay := med(NewDecay(n))
	if paper > decay {
		t.Fatalf("paper protocol (%d rounds) slower than Decay (%d rounds)", paper, decay)
	}
}

func BenchmarkDecay(b *testing.B) {
	const n = 5000
	d := 2 * math.Log(n)
	g := connected(b, n, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i))
		res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: NewDecay(n), MaxRounds: 5000}, rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

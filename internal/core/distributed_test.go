package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/xrand"
)

func TestDistributedProtocolCompletes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		d    float64
		seed uint64
	}{
		{500, 14, 1},
		{2000, 16, 2},
		{2000, 50, 3},
		{8000, 20, 4},
	} {
		g := mustConnected(t, tc.n, tc.d, tc.seed)
		rng := xrand.New(tc.seed + 100)
		res := runProtocol(g, 0, NewDistributedProtocol(g.N(), tc.d), MaxRoundsFor(g.N()), rng)
		if !res.Completed {
			t.Fatalf("n=%d d=%v: incomplete %d/%d after %d rounds",
				tc.n, tc.d, res.Informed, tc.n, res.Rounds)
		}
		bound := DistributedBound(tc.n)
		if float64(res.Rounds) > 20*bound {
			t.Fatalf("n=%d d=%v: %d rounds, %.1fx the ln n bound",
				tc.n, tc.d, res.Rounds, float64(res.Rounds)/bound)
		}
	}
}

func TestDistributedPhaseStructure(t *testing.T) {
	p := NewDistributedProtocol(100000, 20)
	// D1 = floor(ln 1e5 / ln 20) - 1 = floor(11.51/3.00) - 1 = 2.
	if p.D1 != 2 {
		t.Fatalf("D1 = %d, want 2", p.D1)
	}
	if p.Selectivity != 1.0/20 {
		t.Fatalf("selectivity = %v", p.Selectivity)
	}
	if p.RestrictPool {
		t.Fatal("default protocol must use the proof's unrestricted pool")
	}
	if p.KickProb <= 0 || p.KickProb > 1 {
		t.Fatalf("kick prob = %v", p.KickProb)
	}
	rng := xrand.New(1)
	// Non-selective rounds: always transmit.
	for round := 1; round <= p.D1; round++ {
		if !p.Transmit(0, round, 0, rng) {
			t.Fatalf("round %d should be non-selective", round)
		}
	}
	// Selective rounds: every informed node transmits at roughly rate 1/d,
	// regardless of when it was informed.
	for _, informedAt := range []int32{0, int32(p.D1 + 5)} {
		hits := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			if p.Transmit(0, p.D1+2, informedAt, rng) {
				hits++
			}
		}
		rate := float64(hits) / trials
		if math.Abs(rate-p.Selectivity) > 0.01 {
			t.Fatalf("selective rate %v for informedAt=%d, want ~%v", rate, informedAt, p.Selectivity)
		}
	}
}

func TestRestrictedPoolProtocol(t *testing.T) {
	p := NewRestrictedPoolProtocol(1000, 10)
	if !p.RestrictPool {
		t.Fatal("restricted protocol lost its restriction")
	}
	if p.PoolCutoff != int32(p.D1+1) {
		t.Fatalf("pool cutoff = %d", p.PoolCutoff)
	}
	if p.SafetyRound <= p.D1+1 {
		t.Fatalf("safety round %d not after kick", p.SafetyRound)
	}
	rng := xrand.New(2)
	late := int32(p.D1 + 5)
	// Before the safety round, late-informed nodes are silent.
	for i := 0; i < 200; i++ {
		if p.Transmit(0, p.SafetyRound-1, late, rng) {
			t.Fatal("late node transmitted before safety round")
		}
	}
	// After the safety round they may transmit.
	hits := 0
	for i := 0; i < 5000; i++ {
		if p.Transmit(0, p.SafetyRound, late, rng) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("safety valve never opened the pool")
	}
}

func TestLiteralRestrictedProtocolStrandsNobodyWithValveOff(t *testing.T) {
	// With the valve disabled, the literal protocol statement keeps the
	// pool restricted forever; late nodes never transmit.
	p := NewRestrictedPoolProtocol(1000, 10)
	p.SafetyRound = 0
	rng := xrand.New(3)
	late := int32(p.D1 + 5)
	for i := 0; i < 1000; i++ {
		if p.Transmit(0, 10000+i, late, rng) {
			t.Fatal("literal protocol let a late node transmit")
		}
	}
}

func TestRestrictedPoolCompletesViaSafetyValve(t *testing.T) {
	const n = 2000
	d := 2 * math.Log(n)
	g := mustConnected(t, n, d, 33)
	rng := xrand.New(34)
	p := NewRestrictedPoolProtocol(n, d)
	res := runProtocol(g, 0, p, MaxRoundsFor(n), rng)
	if !res.Completed {
		t.Fatalf("restricted protocol incomplete even with valve: %d/%d", res.Informed, n)
	}
}

func TestDistributedScalesLogarithmically(t *testing.T) {
	// Median completion round over a few trials should grow like ln n.
	median := func(n int, d float64) int {
		g := mustConnected(t, n, d, uint64(n)*7)
		times := make([]int, 0, 5)
		for trial := 0; trial < 5; trial++ {
			rng := xrand.New(uint64(n)*31 + uint64(trial))
			times = append(times, broadcastTime(g, NewDistributedProtocol(n, d), MaxRoundsFor(n), rng))
		}
		// insertion sort of 5 elements
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		return times[len(times)/2]
	}
	t1k := median(1000, 2*math.Log(1000))
	t16k := median(16000, 2*math.Log(16000))
	// ln 16000 / ln 1000 = 1.40; allow generous slack but reject linear
	// growth (16x) and even sqrt growth (4x).
	if float64(t16k) > 3.0*float64(t1k) {
		t.Fatalf("distributed rounds grew from %d to %d (x%.1f); want ~ln n growth",
			t1k, t16k, float64(t16k)/float64(t1k))
	}
}

func TestDistributedOnDenseGraph(t *testing.T) {
	const n = 800
	g := gen.Gnp(n, 0.3, xrand.New(5))
	rng := xrand.New(6)
	res := runProtocol(g, 0, NewDistributedProtocol(g.N(), 0.3*n), MaxRoundsFor(g.N()), rng)
	if !res.Completed {
		t.Fatalf("dense distributed incomplete: %d/%d", res.Informed, n)
	}
}

func TestDistributedSmallGraphs(t *testing.T) {
	// Degenerate sizes must not panic and must finish on trivial graphs.
	for _, n := range []int{1, 2, 3, 5} {
		g := gen.Complete(n)
		rng := xrand.New(uint64(n))
		res := runProtocol(g, 0, NewDistributedProtocol(g.N(), float64(n-1)), MaxRoundsFor(g.N()), rng)
		if !res.Completed {
			t.Fatalf("K_%d incomplete", n)
		}
	}
}

func TestMaxRoundsFor(t *testing.T) {
	if MaxRoundsFor(1) < 1 {
		t.Fatal("MaxRoundsFor(1) too small")
	}
	if MaxRoundsFor(1000) <= int(math.Log(1000)) {
		t.Fatal("budget not beyond the bound")
	}
	if MaxRoundsFor(1000000) >= 10000 {
		t.Fatal("budget unreasonably large")
	}
}

func TestKickProbClamped(t *testing.T) {
	// Small n with large d drives D1 to 0 and the raw kick estimate above
	// 1; it must be clamped.
	p := NewDistributedProtocol(10, 8)
	if p.KickProb > 1 || p.KickProb <= 0 {
		t.Fatalf("kick prob %v out of (0,1]", p.KickProb)
	}
}

func BenchmarkDistributedBroadcast(b *testing.B) {
	const n = 10000
	d := 2 * math.Log(n)
	g := mustConnected(b, n, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i))
		res := runProtocol(g, 0, NewDistributedProtocol(g.N(), d), MaxRoundsFor(g.N()), rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

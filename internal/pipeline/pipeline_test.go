package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func connected(t testing.TB, n int, d float64, seed uint64) *graph.Graph {
	t.Helper()
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(seed), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	return g
}

// alohaLike transmits at rate q after an initial flood.
type alohaLike struct{ q float64 }

func (a alohaLike) Transmit(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
	if round <= 3 {
		return true
	}
	return rng.Bernoulli(a.q)
}

func TestPipelineSingleMessageMatchesBroadcastShape(t *testing.T) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 1)
	rng := xrand.New(2)
	res := Run(g, 0, 1, core.NewDistributedProtocol(n, d), RoundRobinMsg, 100*core.MaxRoundsFor(n), rng)
	if !res.Completed {
		t.Fatalf("k=1 incomplete")
	}
	if float64(res.Rounds) > 30*math.Log(n) {
		t.Fatalf("k=1 took %d rounds", res.Rounds)
	}
	if res.FirstComplete[0] != res.Rounds {
		t.Fatalf("FirstComplete %d != rounds %d", res.FirstComplete[0], res.Rounds)
	}
}

func TestPipelineDeliversAllMessages(t *testing.T) {
	const n = 500
	const k = 8
	d := 2 * math.Log(n)
	g := connected(t, n, d, 3)
	for _, sel := range []Selection{RoundRobinMsg, RandomMsg, RarestFirst} {
		rng := xrand.New(4)
		res := Run(g, 0, k, alohaLike{1 / d}, sel, 200000, rng)
		if !res.Completed {
			t.Fatalf("%v: incomplete", sel)
		}
		if res.Delivered != int64(k)*int64(n-1) {
			t.Fatalf("%v: delivered %d, want %d", sel, res.Delivered, k*(n-1))
		}
		for m, r := range res.FirstComplete {
			if r < 1 || r > res.Rounds {
				t.Fatalf("%v: message %d completion round %d", sel, m, r)
			}
		}
	}
}

func TestPipelineThroughputLinearWithGoodSelection(t *testing.T) {
	// The measured law (experiment E20): with availability-aware
	// selection (rarest-first), T(k) ≈ k·T(1) — linear in k, sequential-
	// equivalent throughput without blowup — while blind selection
	// (round-robin over own messages) pays a multiplicative penalty on
	// top. Assert both facts.
	const n = 500
	d := 2 * math.Log(n)
	g := connected(t, n, d, 5)
	med := func(k int, sel Selection) int {
		var ts []int
		for i := uint64(0); i < 3; i++ {
			ts = append(ts, Time(g, 0, k, alohaLike{1 / d}, sel, 500000, xrand.New(10+i)))
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[1]
	}
	t1 := med(1, RarestFirst)
	t8rare := med(8, RarestFirst)
	t8rr := med(8, RoundRobinMsg)
	if t8rare > 3*8*t1 {
		t.Fatalf("rarest-first not ~linear: T(1)=%d T(8)=%d", t1, t8rare)
	}
	if t8rare >= t8rr {
		t.Fatalf("rarest-first (%d) not better than blind round-robin (%d) at k=8", t8rare, t8rr)
	}
}

func TestPipelineOnPath(t *testing.T) {
	// With permanent flooding, interior path nodes never listen after
	// being informed, so only the first message can propagate — the
	// half-duplex constraint in its purest form. A rate below 1 restores
	// listening and delivers all k messages.
	g := gen.Path(6)
	flood := alohaLike{1}
	res := Run(g, 0, 3, flood, RoundRobinMsg, 10000, xrand.New(6))
	if res.Completed {
		t.Fatal("always-transmit should deadlock multi-message relay on a path")
	}
	half := alohaLike{0.5}
	res = Run(g, 0, 3, half, RoundRobinMsg, 10000, xrand.New(6))
	if !res.Completed {
		t.Fatalf("rate-1/2 path pipeline incomplete: %+v", res)
	}
}

func TestPipelineSelectionStrings(t *testing.T) {
	if RoundRobinMsg.String() != "round-robin" || RandomMsg.String() != "random" ||
		RarestFirst.String() != "rarest-first" || Selection(9).String() != "unknown" {
		t.Fatal("selection names wrong")
	}
}

func TestPipelineSingletonGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	rng := xrand.New(7)
	res := Run(g, 0, 5, alohaLike{0.5}, RandomMsg, 10, rng)
	if !res.Completed || res.Rounds != 0 {
		t.Fatalf("singleton: %+v", res)
	}
}

func TestTimeSentinel(t *testing.T) {
	b := graph.NewBuilder(2)
	g := b.Build() // disconnected
	rng := xrand.New(8)
	if got := Time(g, 0, 2, alohaLike{0.5}, RandomMsg, 9, rng); got != 10 {
		t.Fatalf("sentinel = %d", got)
	}
}

func TestRarestFirstNoWorseThanRandom(t *testing.T) {
	const n = 400
	const k = 16
	d := 2 * math.Log(n)
	g := connected(t, n, d, 9)
	med := func(sel Selection) int {
		var ts []int
		for i := uint64(0); i < 3; i++ {
			ts = append(ts, Time(g, 0, k, alohaLike{1 / d}, sel, 500000, xrand.New(20+i)))
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[1]
	}
	rare := med(RarestFirst)
	random := med(RandomMsg)
	if rare > 2*random {
		t.Fatalf("genie-aided rarest-first (%d) much worse than random (%d)", rare, random)
	}
}

func BenchmarkPipeline(b *testing.B) {
	const n = 1000
	d := 2 * math.Log(n)
	g := connected(b, n, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := xrand.New(uint64(i))
		res := Run(g, 0, 8, alohaLike{1 / d}, RoundRobinMsg, 500000, rng)
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// referenceRun is a naive k-broadcast: per-node []bool message sets, its
// own selection code, and reception counted at each listener from its own
// adjacency. It consumes rng exactly like Run (one Transmit call per
// informed node in index order, then one selection per transmitter), so
// the two must agree bit for bit. It also reports how many rounds fall on
// each reception side of the engine's kernel.
func referenceRun(g *graph.Graph, src int32, k int, p Protocol, sel Selection, maxRounds int, rng *xrand.Rand) (res Result, dense, sparse int) {
	n := g.N()
	know := make([][]bool, n)
	for v := range know {
		know[v] = make([]bool, k)
	}
	informedAt := make([]int32, n)
	for v := range informedAt {
		informedAt[v] = -1
	}
	informedAt[src] = 0
	holders := make([]int, k) // nodes knowing each message
	res.FirstComplete = make([]int, k)
	for m := range know[src] {
		know[src][m] = true
		holders[m] = 1
		res.FirstComplete[m] = -1
		if n == 1 {
			res.FirstComplete[m] = 0
		}
	}
	known := func(v int) []int {
		var ms []int
		for m, has := range know[v] {
			if has {
				ms = append(ms, m)
			}
		}
		return ms
	}
	allDone := func() bool {
		for _, r := range res.FirstComplete {
			if r < 0 {
				return false
			}
		}
		return true
	}
	for res.Rounds < maxRounds && !allDone() {
		res.Rounds++
		round := res.Rounds
		carrying := make(map[int32]int)
		var tx []int32
		for v := 0; v < n; v++ {
			if informedAt[v] >= 0 && p.Transmit(int32(v), round, informedAt[v], rng) {
				tx = append(tx, int32(v))
			}
		}
		visits := 0
		for _, v := range tx {
			visits += len(g.Neighbors(v))
			ms := known(int(v))
			switch sel {
			case RandomMsg:
				carrying[v] = ms[rng.Intn(len(ms))]
			case RarestFirst:
				best := ms[0]
				for _, m := range ms {
					if holders[m] < holders[best] {
						best = m
					}
				}
				carrying[v] = best
			default:
				carrying[v] = ms[(round+int(v))%len(ms)]
			}
		}
		if 2*visits >= n {
			dense++
		} else {
			sparse++
		}
		type delivery struct{ w, m int }
		var got []delivery
		for w := 0; w < n; w++ {
			if _, isTx := carrying[int32(w)]; isTx {
				continue
			}
			var senders []int32
			for _, v := range g.Neighbors(int32(w)) {
				if _, isTx := carrying[v]; isTx {
					senders = append(senders, v)
				}
			}
			if len(senders) == 1 {
				got = append(got, delivery{w, carrying[senders[0]]})
			}
		}
		for _, d := range got {
			if know[d.w][d.m] {
				continue
			}
			know[d.w][d.m] = true
			res.Delivered++
			if informedAt[d.w] < 0 {
				informedAt[d.w] = int32(round)
			}
			if holders[d.m]++; holders[d.m] == n {
				res.FirstComplete[d.m] = round
			}
		}
	}
	res.Completed = allDone()
	return res, dense, sparse
}

// TestPipelineMatchesReference diffs Run against the naive reference for
// every selection policy on random graphs of up to 200 nodes, so rounds
// cross plane words and take both reception sides.
func TestPipelineMatchesReference(t *testing.T) {
	crng := xrand.New(77)
	dense, sparse := 0, 0
	for c := 0; c < 30; c++ {
		n := 2 + crng.Intn(199)
		g := gen.Gnp(n, float64(1+crng.Intn(10))/float64(n), crng)
		src := int32(crng.Intn(n))
		k := 1 + crng.Intn(6)
		p := alohaLike{0.05 + 0.5*crng.Float64()}
		seed := crng.Uint64()
		for _, sel := range []Selection{RoundRobinMsg, RandomMsg, RarestFirst} {
			got := Run(g, src, k, p, sel, 80, xrand.New(seed))
			want, d, s := referenceRun(g, src, k, p, sel, 80, xrand.New(seed))
			dense += d
			sparse += s
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("case %d (n=%d k=%d %v): engine %+v, reference %+v", c, n, k, sel, got, want)
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("coverage: %d dense, %d sparse rounds", dense, sparse)
	}
}

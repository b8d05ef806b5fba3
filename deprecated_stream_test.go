package repro

// Regression guard for the sampled-transmitter fast path: Run with a
// protocol that declares no uniform rounds is frozen to the historical
// per-node randomness stream. The golden values below were recorded
// BEFORE the fast path landed (commit b0c4f2c), through the positional
// wrappers Broadcast, RunProtocol and BroadcastMulti that have since been
// removed; each case is the Run call such a wrapper made, with the
// paper's protocol behind perNodeProtocol. If any of these assertions
// fails, the per-node stream drifted.

import (
	"hash/fnv"
	"testing"
)

// fingerprint folds a Result into a stable uint64: rounds, counters and
// the full per-node InformedAt vector all contribute, so any bit-level
// divergence in the simulation shows up here.
func fingerprint(res Result) uint64 {
	h := fnv.New64a()
	put := func(x int) {
		var b [8]byte
		v := uint64(int64(x))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(res.Rounds)
	put(res.Informed)
	put(res.Stats.Transmissions)
	put(res.Stats.Successes)
	put(res.Stats.Collisions)
	put(res.Stats.NewlyInformed)
	for _, at := range res.InformedAt {
		put(int(at))
	}
	return h.Sum64()
}

// perNodeProtocol is the paper's protocol (Theorem 7) with its uniform
// rounds hidden, so every engine asks each informed node every round:
// the per-node stream.
func perNodeProtocol(n int, d float64) Protocol { return struct{ Protocol }{NewProtocol(n, d)} }

// perNode is Run of perNodeProtocol(n, d); protocol runs cannot fail.
func perNode(g *Graph, src int32, d float64, opts ...Option) Result {
	res, _ := Run(g, src, append(opts, WithProtocol(perNodeProtocol(g.N(), d)))...)
	return res
}

func TestDeprecatedWrapperStreamsFrozen(t *testing.T) {
	const n = 2000
	const d = 25.0
	g := testGraph(t, n, d, 1)

	for _, tc := range []struct {
		name string
		seed uint64
		want uint64 // recorded pre-fast-path fingerprint
		run  func(seed uint64) Result
	}{
		{"Broadcast/seed3", 3, 13442191628768536704, func(s uint64) Result { return perNode(g, 0, d, WithSeed(s)) }},
		{"Broadcast/seed9", 9, 17540272938987344624, func(s uint64) Result { return perNode(g, 0, d, WithSeed(s)) }},
		{"RunProtocol/seed5", 5, 16578885538056467629, func(s uint64) Result {
			return perNode(g, 0, d, WithMaxRounds(MaxRounds(n)), WithSeed(s))
		}},
		{"BroadcastMulti/seed7", 7, 17027192350006751548, func(s uint64) Result {
			return perNode(g, 0, d, WithSources(41, 97), WithSeed(s))
		}},
	} {
		got := fingerprint(tc.run(tc.seed))
		t.Logf("GOLDEN %s: %d", tc.name, got)
		if tc.want != 0 && got != tc.want {
			t.Errorf("%s: fingerprint %d, frozen golden %d — the per-node randomness stream changed", tc.name, got, tc.want)
		}
	}
}

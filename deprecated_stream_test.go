package repro

// Regression guard for the sampled-transmitter fast path: Run with
// WithPerNodeSampling is frozen to the historical per-node randomness
// stream. The golden values below were recorded BEFORE the fast path
// landed (commit b0c4f2c), through the positional wrappers Broadcast,
// RunProtocol and BroadcastMulti that have since been removed; each case
// is the Run call such a wrapper made. If any of these assertions fails,
// the per-node stream drifted.

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
	put(res.Stats.Deliveries)
	put(res.Stats.Collisions)
	put(res.Stats.NewlyInformed)
	for _, at := range res.InformedAt {
		put(int(at))
	}
	return h.Sum64()
}

// perNode is Run on the per-node stream; protocol runs cannot fail.
func perNode(g *Graph, src int32, opts ...Option) Result {
	res, _ := Run(g, src, append(opts, WithPerNodeSampling())...)
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
		{"Broadcast/seed3", 3, 13442191628768536704, func(s uint64) Result { return perNode(g, 0, WithDegree(d), WithSeed(s)) }},
		{"Broadcast/seed9", 9, 17540272938987344624, func(s uint64) Result { return perNode(g, 0, WithDegree(d), WithSeed(s)) }},
		{"RunProtocol/seed5", 5, 16578885538056467629, func(s uint64) Result {
			return perNode(g, 0, WithProtocol(NewProtocol(n, d)), WithMaxRounds(MaxRounds(n)), WithSeed(s))
		}},
		{"BroadcastMulti/seed7", 7, 17027192350006751548, func(s uint64) Result {
			return perNode(g, 0, WithSources(41, 97), WithDegree(d), WithSeed(s))
		}},
	} {
		got := fingerprint(tc.run(tc.seed))
		t.Logf("GOLDEN %s: %d", tc.name, got)
		if tc.want != 0 && got != tc.want {
			t.Errorf("%s: fingerprint %d, frozen golden %d — the per-node randomness stream changed", tc.name, got, tc.want)
		}
	}
}

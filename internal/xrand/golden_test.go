package xrand

// Golden fingerprints of the skip-based samplers' streams. The values were
// recorded before Binomial and SubsetEach hoisted log(1-p) out of their
// loops and before GeometricLog gained its table-driven fast path; both
// changes are meant to be bit-identical.

import (
	"hash/fnv"
	"testing"
)

func TestSkipSamplerStreamsGolden(t *testing.T) {
	const want uint64 = 3134108138574933243
	h := fnv.New64a()
	var b [8]byte
	put := func(x int) {
		v := uint64(int64(x))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	r := New(31)
	src := make([]int32, 500)
	for i := range src {
		src[i] = int32(i)
	}
	var dst []int32
	for _, p := range []float64{1e-9, 1e-4, 0.003, 0.04, 0.25, 0.5, 0.6, 0.97, 1} {
		for i := 0; i < 200; i++ {
			put(r.Geometric(p))
			put(r.Binomial(1000, p))
			dst = r.SubsetEach(dst[:0], src, p)
			put(len(dst))
			for _, v := range dst {
				put(int(v))
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("skip sampler stream fingerprint %d, want %d", got, want)
	}
}

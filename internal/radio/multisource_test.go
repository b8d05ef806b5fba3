package radio

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/xrand"
)

func TestNewEngineMulti(t *testing.T) {
	g := gen.Path(6)
	e := NewEngineMulti(g, []int32{0, 5, 0}, StrictInformed)
	if e.InformedCount() != 2 {
		t.Fatalf("informed = %d, want 2", e.InformedCount())
	}
	if e.InformedAt(5) != 0 || e.InformedAt(0) != 0 {
		t.Fatal("sources not at round 0")
	}
	// Both ends transmit: the path closes from both sides.
	rounds := 0
	for !e.Done() {
		var tx []int32
		tx = e.AppendInformed(tx)
		if _, err := e.Round(tx); err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds > 10 {
			t.Fatal("two-source path flood did not finish")
		}
	}
	// Path 0..5 from both ends, flooding: meet in the middle in ~3 rounds
	// (some collisions in the middle may add one).
	if rounds > 4 {
		t.Fatalf("two-source flood took %d rounds", rounds)
	}
}

func TestNewEngineMultiPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sources did not panic")
		}
	}()
	NewEngineMulti(gen.Path(3), nil, StrictInformed)
}

func TestNewEngineMultiOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad source did not panic")
		}
	}()
	NewEngineMulti(gen.Path(3), []int32{0, 9}, StrictInformed)
}

func TestRunProtocolMultiFasterWithMoreSources(t *testing.T) {
	const n = 2000
	d := 2 * math.Log(n)
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), xrand.New(1), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	med := func(k int) int {
		var ts []int
		for trial := 0; trial < 5; trial++ {
			rng := xrand.New(100 + uint64(trial))
			sources := rng.Sample(n, k)
			res := runOn(NewEngineMulti(g, sources, StrictInformed), p, 5000, rng)
			if !res.Completed {
				t.Fatal("incomplete")
			}
			ts = append(ts, res.Rounds)
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[len(ts)/2]
	}
	one := med(1)
	many := med(64)
	if many > one {
		t.Fatalf("64 sources (%d rounds) slower than 1 source (%d rounds)", many, one)
	}
}

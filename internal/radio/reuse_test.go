package radio

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// smallRandomGraph builds a deterministic pseudo-random connected-ish graph
// without depending on internal/gen.
func smallRandomGraph(n int, extra int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(rng.Int31n(int32(v)), int32(v)) // random spanning tree
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
	}
	return b.Build()
}

// A failed Round must leave the engine exactly as it was: no round counted,
// no stats, and no stale transmit marks corrupting later collision counts.
// This is a regression test — the out-of-range error path used to return
// without clearing transmitting[]/txList, and both error paths counted a
// round that never executed.
func TestRoundErrorLeavesEngineUntouched(t *testing.T) {
	build := func() *Engine {
		b := graph.NewBuilder(3) // path 0-1-2
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		return NewEngine(b.Build(), 0, StrictInformed)
	}

	cases := []struct {
		name string
		tx   []int32
		is   error
	}{
		// The valid transmitter 0 is marked before validation reaches the
		// bad entry, so the mark must be rolled back.
		{"out of range", []int32{0, 7}, nil},
		{"uninformed strict", []int32{0, 2}, ErrUninformedTransmitter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := build()
			_, err := e.Round(tc.tx)
			if err == nil {
				t.Fatalf("Round(%v) succeeded, want error", tc.tx)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("Round(%v) error = %v, want %v", tc.tx, err, tc.is)
			}
			if e.RoundCount() != 0 {
				t.Errorf("failed round was counted: RoundCount = %d", e.RoundCount())
			}
			if e.Counters() != (trace.Counters{}) {
				t.Errorf("failed round changed stats: %+v", e.Counters())
			}

			// A subsequent valid round must match a fresh engine exactly.
			// With leaked transmit marks, node 0 would be skipped as
			// "already transmitting" and inform nobody.
			newly, err := e.Round([]int32{0})
			if err != nil {
				t.Fatalf("valid round after failed round: %v", err)
			}
			fresh := build()
			wantNewly, err := fresh.Round([]int32{0})
			if err != nil {
				t.Fatalf("valid round on fresh engine: %v", err)
			}
			if len(newly) != len(wantNewly) || len(newly) != 1 || newly[0] != wantNewly[0] {
				t.Errorf("newly informed after failed round = %v, fresh engine = %v", newly, wantNewly)
			}
			if e.Counters() != fresh.Counters() {
				t.Errorf("stats after failed+valid round = %+v, fresh engine = %+v", e.Counters(), fresh.Counters())
			}
			if e.RoundCount() != fresh.RoundCount() {
				t.Errorf("round count = %d, fresh engine = %d", e.RoundCount(), fresh.RoundCount())
			}
		})
	}
}

func TestRunProtocolOnMatchesRunProtocol(t *testing.T) {
	g := smallRandomGraph(120, 240, 5)
	p := ProtocolFunc(func(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
		return rng.Float64() < 0.25
	})
	e := NewEngine(g, 0, StrictInformed)
	for seed := uint64(1); seed <= 4; seed++ {
		fresh := runFresh(g, 0, p, 400, xrand.New(seed))
		reused := runOn(e, p, 400, xrand.New(seed))
		if fresh.Completed != reused.Completed || fresh.Rounds != reused.Rounds ||
			fresh.Informed != reused.Informed || fresh.Stats != reused.Stats {
			t.Fatalf("seed %d: reused engine result %+v, fresh %+v", seed, reused, fresh)
		}
		for v := range fresh.InformedAt {
			if fresh.InformedAt[v] != reused.InformedAt[v] {
				t.Fatalf("seed %d: InformedAt[%d] = %d, fresh %d", seed, v, reused.InformedAt[v], fresh.InformedAt[v])
			}
		}
	}
}

func TestBroadcastTimeOnMatchesBroadcastTime(t *testing.T) {
	g := smallRandomGraph(100, 150, 6)
	p := ProtocolFunc(func(v int32, round int, informedAt int32, rng *xrand.Rand) bool {
		return rng.Float64() < 0.2
	})
	e := NewEngine(g, 0, StrictInformed)
	for seed := uint64(1); seed <= 6; seed++ {
		want := timeFresh(g, 0, p, 300, xrand.New(seed))
		got := timeOn(e, p, 300, xrand.New(seed))
		if got != want {
			t.Fatalf("seed %d: reused engine = %d, fresh engine = %d", seed, got, want)
		}
	}
}

func TestExecuteScheduleOnMatchesExecuteSchedule(t *testing.T) {
	b := graph.NewBuilder(4) // path 0-1-2-3
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	s := &Schedule{Sets: [][]int32{{0}, {1}, {2}}}

	e := NewEngine(g, 0, StrictInformed)
	// Dirty the engine first so the reset before replay is exercised.
	if _, err := e.Round([]int32{0}); err != nil {
		t.Fatal(err)
	}
	got, err := replayOn(e, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replayFresh(g, 0, s, StrictInformed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.Rounds != want.Rounds || got.Stats != want.Stats {
		t.Fatalf("reused-engine replay = %+v, fresh replay = %+v", got, want)
	}
}

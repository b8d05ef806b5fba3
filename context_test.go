package repro

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/radio"
)

// TestRunContextUncanceledBitIdentical is the context-facade acceptance
// check: RunContext with an uncancelable (or never-canceled) context must
// reproduce Run bit-for-bit — the cancellation check consumes no
// randomness, so the two entry points share one stream.
func TestRunContextUncanceledBitIdentical(t *testing.T) {
	g := testGraph(t, 1500, 12, 3)
	for seed := uint64(1); seed <= 5; seed++ {
		want, err := Run(g, 0, WithDegree(12), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunContext(context.Background(), g, 0, WithDegree(12), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("seed %d: RunContext(Background) %+v != Run %+v", seed, got, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		got2, err := RunContext(ctx, g, 0, WithDegree(12), WithSeed(seed))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got2) != fingerprint(want) {
			t.Fatalf("seed %d: RunContext(cancelable, never canceled) diverged from Run", seed)
		}
	}
}

// cancelAfterRounds is an Observer that cancels a context once it has
// seen the given number of rounds — the deterministic way to land a
// cancellation mid-run, since the engine checks the context between
// rounds.
type cancelAfterRounds struct {
	nopObserver
	rounds int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterRounds) Round(RoundRecord) {
	c.seen++
	if c.seen == c.rounds {
		c.cancel()
	}
}

type nopObserver struct{}

func (nopObserver) BeginRun(RunInfo)  {}
func (nopObserver) Round(RoundRecord) {}
func (nopObserver) EndRun(RunSummary) {}

// TestRunContextCancelMidRun: a cancellation landing between rounds stops
// the run cooperatively — the partial Result reflects exactly the rounds
// executed, and the error matches both ErrCanceled and the context's own
// cause under errors.Is.
func TestRunContextCancelMidRun(t *testing.T) {
	g := testGraph(t, 1500, 12, 3)

	full, err := Run(g, 0, WithDegree(12), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 4 {
		t.Skipf("run completed in %d rounds; too short to cancel mid-way", full.Rounds)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAfterRounds{rounds: 3, cancel: cancel}
	res, err := RunContext(ctx, g, 0, WithDegree(12), WithSeed(7), WithObserver(obs))
	if err == nil {
		t.Fatal("RunContext returned nil error after mid-run cancel")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res.Rounds != 3 {
		t.Fatalf("partial result has %d rounds, want 3 (cancellation is between-rounds)", res.Rounds)
	}
	if res.Completed {
		t.Fatal("canceled run reports Completed")
	}
	if res.Informed < 1 || res.Informed > full.Informed {
		t.Fatalf("partial Informed = %d outside [1, %d]", res.Informed, full.Informed)
	}
}

// TestRunContextDeadline: an already-expired deadline cancels before the
// first round; the error wraps both ErrCanceled and DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	g := testGraph(t, 200, 8, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := RunContext(ctx, g, 0, WithDegree(8))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must wrap ErrCanceled and context.DeadlineExceeded", err)
	}
	if res.Rounds != 0 {
		t.Fatalf("expired deadline still executed %d rounds", res.Rounds)
	}
}

// TestWithContextOption: WithContext attaches the context through plain
// Run, and wins over RunContext's argument.
func TestWithContextOption(t *testing.T) {
	g := testGraph(t, 200, 8, 1)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := Run(g, 0, WithDegree(8), WithContext(canceled)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run with canceled WithContext: err = %v, want ErrCanceled", err)
	}
	// Option beats argument: live argument, canceled option → canceled.
	if _, err := RunContext(context.Background(), g, 0, WithDegree(8), WithContext(canceled)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("WithContext should override RunContext argument; err = %v", err)
	}
}

// TestErrNoSuchSource: out-of-range sources (primary or extra) fail fast
// with the typed sentinel, before any simulation work.
func TestErrNoSuchSource(t *testing.T) {
	g := testGraph(t, 100, 8, 1)
	for _, src := range []int32{-1, 100, 1 << 20} {
		if _, err := Run(g, src, WithDegree(8)); !errors.Is(err, ErrNoSuchSource) {
			t.Fatalf("Run(src=%d): err = %v, want ErrNoSuchSource", src, err)
		}
	}
	if _, err := Run(g, 0, WithDegree(8), WithSources(5, 200)); !errors.Is(err, ErrNoSuchSource) {
		t.Fatal("out-of-range extra source not caught")
	}
}

// TestErrConflictingOptions: every option-conflict path wraps the
// sentinel, so callers can classify misuse without string matching.
func TestErrConflictingOptions(t *testing.T) {
	g := testGraph(t, 100, 8, 1)
	sched := &Schedule{Sets: [][]int32{{0}}}
	cases := [][]Option{
		{WithDegree(8), WithProtocol(radio.ProtocolFunc(func(int32, int, int32, *Rand) bool { return true }))},
		{WithSchedule(sched), WithDegree(8)},
		{WithSchedule(sched), WithMaxRounds(5)},
		{WithRand(NewRand(1)), WithSeed(3)},
		{WithMaxRounds(-1)},
	}
	for i, opts := range cases {
		if _, err := Run(g, 0, opts...); !errors.Is(err, ErrConflictingOptions) {
			t.Fatalf("case %d: err = %v, want ErrConflictingOptions", i, err)
		}
	}
}

// TestErrScheduleMismatch: replaying a schedule whose transmitter set
// does not fit the model yields the typed sentinel.
func TestErrScheduleMismatch(t *testing.T) {
	g := testGraph(t, 100, 8, 1)
	// Round 1 transmits from an uninformed node under StrictInformed.
	bad := &Schedule{Sets: [][]int32{{99}}}
	if _, err := Run(g, 0, WithSchedule(bad)); !errors.Is(err, ErrScheduleMismatch) {
		t.Fatalf("uninformed transmitter: err = %v, want ErrScheduleMismatch", err)
	}
	oob := &Schedule{Sets: [][]int32{{0}, {1 << 20}}}
	if _, err := Run(g, 0, WithSchedule(oob)); !errors.Is(err, ErrScheduleMismatch) {
		t.Fatalf("out-of-range transmitter: err = %v, want ErrScheduleMismatch", err)
	}
}

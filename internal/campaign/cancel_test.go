package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/radio"
	"repro/internal/xrand"
)

// ctxGate coordinates the "test-ctx" kind with the cancellation tests:
// while a test has set it, each trial sends one token to started (if
// there is room) and then blocks until release is closed or the context
// is canceled. Every trial takes this path, with or without
// Options.Context, so a test resets the gate before any run it does not
// mean to block.
var ctxGate struct {
	started chan struct{}
	release chan struct{}
}

func init() {
	RegisterKind("test-ctx", func(p PointSpec, _ uint64, _ bool) (Runner, error) {
		return ctxAwareRunner{scale: p.Trial.D}, nil
	})
}

type ctxAwareRunner struct{ scale float64 }

func (r ctxAwareRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	for i, seed := range seeds {
		if ctxGate.started != nil {
			select {
			case ctxGate.started <- struct{}{}:
			default:
			}
		}
		if ctxGate.release != nil {
			select {
			case <-ctxGate.release:
			case <-ctx.Done():
				return radio.Canceled(ctx)
			}
		}
		values[i] = xrand.New(seed).Float64() * r.scale
		oks[i] = values[i] > 1
	}
	return nil
}

func ctxSpec(trials int) *Spec {
	return &Spec{
		Name:   "test-ctx-campaign",
		Seed:   101,
		Trials: trials,
		Points: []PointSpec{
			{ID: "a", X: 1, Trial: TrialSpec{Kind: "test-ctx", N: 10, D: 4}},
			{ID: "b", X: 2, Trial: TrialSpec{Kind: "test-ctx", N: 10, D: 9}},
		},
	}
}

// TestContextCancelDropsInFlightTrialsAndResumes is the campaign half of
// the cancellation contract: a run canceled while trials are blocked
// mid-flight records NO samples for those trials (a cancellation-timing-
// dependent value must never reach a checkpoint), and resuming the
// checkpoint converges to the byte-identical report an uninterrupted run
// produces.
func TestContextCancelDropsInFlightTrialsAndResumes(t *testing.T) {
	dir := t.TempDir()
	spec := ctxSpec(8)

	ctxGate.started = make(chan struct{}, 64)
	ctxGate.release = make(chan struct{})
	defer func() { ctxGate.started, ctxGate.release = nil, nil }()

	ctx, cancel := context.WithCancel(context.Background())
	type runOut struct {
		report *Report
		err    error
	}
	outCh := make(chan runOut, 1)
	go func() {
		rep, err := Run(spec, Options{Workers: 2, Dir: dir, Context: ctx})
		outCh <- runOut{rep, err}
	}()

	// Both workers are now blocked inside RunTrials; cancel lands
	// mid-trial.
	for i := 0; i < 2; i++ {
		select {
		case <-ctxGate.started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never reached the trial gate")
		}
	}
	cancel()
	var out runOut
	select {
	case out = <-outCh:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled campaign did not return")
	}
	if out.err != nil {
		t.Fatalf("canceled campaign returned error %v", out.err)
	}
	if out.report.Complete {
		t.Fatal("canceled campaign reports Complete")
	}
	for _, p := range out.report.Points {
		if p.Failures > 0 {
			t.Fatalf("point %s records %d failed samples; canceled trials must be dropped, not failed", p.ID, p.Failures)
		}
	}

	// Reset the gate, resume without a context and compare against a
	// fresh uninterrupted run: byte-identical reports.
	ctxGate.started, ctxGate.release = nil, nil
	resumed, err := Run(spec, Options{Workers: 2, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	rj, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	fj, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, fj) {
		t.Fatalf("resumed-after-cancel report differs from uninterrupted run:\n%s\nvs\n%s", rj, fj)
	}
}

// TestContextUncanceledMatchesPlainRun: running under a live (never
// canceled) context produces the byte-identical report of a context-free
// run — the Runner contract that an uncanceled ctx consumes no
// randomness.
func TestContextUncanceledMatchesPlainRun(t *testing.T) {
	spec := ctxSpec(16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	withCtx, err := Run(spec, Options{Workers: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := withCtx.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("context-aware run differs from plain run:\n%s\nvs\n%s", a, b)
	}
}

// TestRunTrialsCanceledContext: every built-in kind, on a fixed or a
// resampled graph and on either engine, answers an already-canceled
// context with an error wrapping radio.ErrCanceled, so a campaign
// shutdown never waits out a block.
func TestRunTrialsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seeds := []uint64{11, 12, 13}
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate", "centralized"} {
		for _, fixed := range []bool{false, true} {
			for _, lanes := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/fixed=%v/lanes=%v", kind, fixed, lanes), func(t *testing.T) {
					p := PointSpec{ID: "p", X: 1, Trial: TrialSpec{Kind: kind, N: 400, D: 12, FixedGraph: fixed}}
					runner, err := newRunner(p, 7, lanes)
					if err != nil {
						t.Fatal(err)
					}
					values := make([]float64, len(seeds))
					oks := make([]bool, len(seeds))
					if err := runner.RunTrials(ctx, seeds, values, oks); !errors.Is(err, radio.ErrCanceled) {
						t.Fatalf("RunTrials under a canceled context returned %v, want radio.ErrCanceled", err)
					}
				})
			}
		}
	}
}

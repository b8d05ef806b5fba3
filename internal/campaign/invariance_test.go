package campaign

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
)

// The satellite acceptance tests of the campaign subsystem: the final
// report — both its JSON and its text rendering — must be byte-identical
// regardless of worker count (including GOMAXPROCS itself), and an
// interrupted run resumed from its checkpoint must converge to the
// identical report an uninterrupted run produces.

// simSpec is a small campaign over the real simulator kinds, so the
// invariance matrix also exercises engine reuse, fixed-graph state and
// the sampled-transmitter fast path — not just the pure-rng test kind.
func simSpec() *Spec {
	return &Spec{
		Name:       "invariance-sim",
		Seed:       2006,
		Trials:     4,
		MaxRetries: 1,
		Shards:     2,
		Points: []PointSpec{
			{ID: "dist-n150", X: 150, Trial: TrialSpec{Kind: "distributed", N: 150, D: 10}},
			{ID: "dist-fixed-n150", X: 150, Trial: TrialSpec{Kind: "distributed", N: 150, D: 10, FixedGraph: true}},
			{ID: "cent-n150", X: 150, Trial: TrialSpec{Kind: "centralized", N: 150, D: 10}},
		},
	}
}

// renderings returns the two deterministic renderings of a report.
func renderings(t *testing.T, r *Report) (string, string) {
	t.Helper()
	return string(reportJSON(t, r)), r.Text()
}

func TestWorkerCountInvariance(t *testing.T) {
	spec := simSpec()
	base, err := Run(spec, Options{Workers: 1, Dir: filepath.Join(t.TempDir(), "w1")})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseText := renderings(t, base)
	for _, workers := range []int{2, 8} {
		r, err := Run(spec, Options{Workers: workers, Dir: filepath.Join(t.TempDir(), "wN")})
		if err != nil {
			t.Fatal(err)
		}
		j, txt := renderings(t, r)
		if j != baseJSON {
			t.Errorf("JSON report with %d workers differs from 1 worker", workers)
		}
		if txt != baseText {
			t.Errorf("text report with %d workers differs from 1 worker", workers)
		}
	}
}

func TestGOMAXPROCSInvariance(t *testing.T) {
	// Workers defaults to GOMAXPROCS; pin it to 1 and 8 around two full
	// runs, the satellite's literal claim.
	spec := simSpec()
	old := runtime.GOMAXPROCS(1)
	r1, err1 := Run(spec, Options{Dir: filepath.Join(t.TempDir(), "p1")})
	runtime.GOMAXPROCS(8)
	r8, err8 := Run(spec, Options{Dir: filepath.Join(t.TempDir(), "p8")})
	runtime.GOMAXPROCS(old)
	if err1 != nil || err8 != nil {
		t.Fatalf("runs failed: %v / %v", err1, err8)
	}
	j1, t1 := renderings(t, r1)
	j8, t8 := renderings(t, r8)
	if j1 != j8 || t1 != t8 {
		t.Error("reports differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

func TestInterruptedResumeInvariance(t *testing.T) {
	spec := simSpec()
	full, err := Run(spec, Options{Workers: 4, Dir: filepath.Join(t.TempDir(), "full")})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatal("uninterrupted run must complete")
	}
	fullJSON, fullText := renderings(t, full)

	// Interrupt after a deterministic number of recorded samples, then
	// resume — possibly more than once, like a flaky machine would.
	dir := filepath.Join(t.TempDir(), "halted")
	partial, err := Run(spec, Options{Workers: 4, Dir: dir, HaltAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("halted run must be incomplete")
	}
	// A second partial leg (it may or may not finish the small grid —
	// in-flight trials past the halt threshold still get recorded).
	if _, err := Run(spec, Options{Workers: 2, Dir: dir, Resume: true, HaltAfter: 4}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(spec, Options{Workers: 8, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete {
		t.Fatal("final resume must complete the campaign")
	}
	j, txt := renderings(t, resumed)
	if j != fullJSON {
		t.Error("JSON report after interrupt+resume differs from the uninterrupted run")
	}
	if txt != fullText {
		t.Error("text report after interrupt+resume differs from the uninterrupted run")
	}
	// And the offline report over the finished checkpoint agrees too.
	offline, err := ReportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if oj, _ := renderings(t, offline); oj != fullJSON {
		t.Error("offline ReportDir differs from the live report")
	}
}

func TestInterruptChannelHaltsGracefully(t *testing.T) {
	spec := cheapSpec(50, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-canceled context: halt before running a trial
	dir := t.TempDir()
	r, err := Run(spec, Options{Workers: 2, Dir: dir, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if r.Complete {
		t.Error("immediately-interrupted run must be incomplete")
	}
	// The checkpoint is flushed and resumable.
	resumed, err := Run(spec, Options{Workers: 2, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete {
		t.Error("resume after interrupt must complete")
	}
	clean, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, resumed)) != string(reportJSON(t, clean)) {
		t.Error("interrupted+resumed report differs from clean in-memory run")
	}
}

package campaign

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// Test-only trial kinds, registered once for the whole package test run.
//
// "test-cheap" is a pure-rng trial (no graph work): value is a uniform
// draw scaled by the point's D, ok iff the value exceeds 1. Fast enough
// to run hundreds of trials in invariance matrices.
//
// "test-flaky" panics deterministically whenever its first draw is below
// 0.3 and otherwise returns the second draw — the fault-tolerance kinds.
func init() {
	RegisterKind("test-cheap", func(p PointSpec, _ uint64, _ bool) (Runner, error) {
		return cheapRunner{scale: p.Trial.D}, nil
	})
	RegisterKind("test-flaky", func(p PointSpec, _ uint64, _ bool) (Runner, error) {
		return flakyRunner{}, nil
	})
}

type cheapRunner struct{ scale float64 }

func (r cheapRunner) RunTrials(_ context.Context, seeds []uint64, values []float64, oks []bool) error {
	for i, seed := range seeds {
		values[i] = xrand.New(seed).Float64() * r.scale
		oks[i] = values[i] > 1
	}
	return nil
}

type flakyRunner struct{}

func (flakyRunner) RunTrials(_ context.Context, seeds []uint64, values []float64, oks []bool) error {
	for i, seed := range seeds {
		rng := xrand.New(seed)
		if rng.Float64() < 0.3 {
			panic("test-flaky: deterministic failure")
		}
		values[i], oks[i] = rng.Float64(), true
	}
	return nil
}

// cheapSpec builds a small pure-rng campaign spec.
func cheapSpec(trials int, stop *StopRule) *Spec {
	return &Spec{
		Name:   "test-cheap-campaign",
		Seed:   77,
		Trials: trials,
		Stop:   stop,
		Points: []PointSpec{
			{ID: "a", X: 1, Trial: TrialSpec{Kind: "test-cheap", N: 10, D: 4}},
			{ID: "b", X: 2, Trial: TrialSpec{Kind: "test-cheap", N: 10, D: 9}},
			{ID: "c", X: 3, Trial: TrialSpec{Kind: "test-cheap", N: 10, D: 2}},
		},
	}
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := r.JSON()
	if err != nil {
		t.Fatalf("rendering report: %v", err)
	}
	return b
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no trials", func(s *Spec) { s.Trials = 0 }, "trials"},
		{"no points", func(s *Spec) { s.Points = nil }, "no points"},
		{"dup id", func(s *Spec) { s.Points[1].ID = "a" }, "duplicate"},
		{"empty id", func(s *Spec) { s.Points[0].ID = "" }, "no id"},
		{"bad kind", func(s *Spec) { s.Points[0].Trial.Kind = "nope" }, "unknown trial kind"},
		{"bad n", func(s *Spec) { s.Points[0].Trial.N = 0 }, "n must be positive"},
		{"bad d", func(s *Spec) { s.Points[0].Trial.D = 0 }, "d must be positive"},
		{"bad stop min", func(s *Spec) { s.Stop = &StopRule{MinTrials: 1, HalfWidth: 1} }, "min_trials"},
		{"bad stop hw", func(s *Spec) { s.Stop = &StopRule{MinTrials: 3} }, "half_width"},
	}
	for _, c := range cases {
		s := cheapSpec(5, nil)
		c.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := cheapSpec(5, &StopRule{MinTrials: 3, HalfWidth: 0.5}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSpecHashStable(t *testing.T) {
	a, b := cheapSpec(5, nil), cheapSpec(5, nil)
	if a.Hash() != b.Hash() {
		t.Error("identical specs must hash identically")
	}
	b.Points[0].Trial.D = 5
	if a.Hash() == b.Hash() {
		t.Error("edited spec must change the hash")
	}
}

func TestRunInMemory(t *testing.T) {
	r, err := Run(cheapSpec(20, nil), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Error("campaign must complete")
	}
	if len(r.Points) != 3 {
		t.Fatalf("got %d point reports", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Consumed != 20 || !p.Complete || p.Failures != 0 {
			t.Errorf("point %s: consumed=%d complete=%v failures=%d", p.ID, p.Consumed, p.Complete, p.Failures)
		}
		if math.IsNaN(float64(p.Mean)) || float64(p.Mean) <= 0 {
			t.Errorf("point %s: mean = %v", p.ID, p.Mean)
		}
		// The cheap trial succeeds iff value > 1, so point c (scale 2)
		// must have a success rate strictly inside (0, 1) at 20 trials
		// ... statistically; just check the interval is ordered.
		if !(float64(p.WilsonLow) <= float64(p.SuccessRate) && float64(p.SuccessRate) <= float64(p.WilsonHigh)) {
			t.Errorf("point %s: Wilson interval [%v, %v] does not bracket rate %v",
				p.ID, p.WilsonLow, p.WilsonHigh, p.SuccessRate)
		}
	}
}

func TestFaultToleranceRecordsFailuresWithoutKillingPool(t *testing.T) {
	spec := &Spec{
		Name:       "test-flaky-campaign",
		Seed:       5,
		Trials:     40,
		MaxRetries: 2,
		Points: []PointSpec{
			{ID: "flaky", X: 1, Trial: TrialSpec{Kind: "test-flaky", N: 10, D: 1}},
			{ID: "solid", X: 2, Trial: TrialSpec{Kind: "test-cheap", N: 10, D: 4}},
		},
	}
	r, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Error("panicking trials must not abort the campaign")
	}
	flaky := r.Points[0]
	if flaky.Consumed != 40 {
		t.Errorf("flaky point consumed %d/40", flaky.Consumed)
	}
	// ~30% of seeds panic; with 40 trials the count is essentially never 0
	// or 40.
	if flaky.Failures == 0 || flaky.Failures == 40 {
		t.Errorf("flaky point failures = %d, want strictly between 0 and 40", flaky.Failures)
	}
	if got := flaky.Successes + flaky.Failures; got != 40 {
		t.Errorf("flaky successes+failures = %d, want 40 (failed trials are never ok)", got)
	}
	solid := r.Points[1]
	if solid.Failures != 0 || solid.Consumed != 40 {
		t.Errorf("solid point disturbed by neighbour panics: %+v", solid)
	}
	// Failure handling must itself be deterministic.
	r2, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, r)) != string(reportJSON(t, r2)) {
		t.Error("reports with panicking trials differ across worker counts")
	}
}

func TestRetriesAreBoundedAndRecorded(t *testing.T) {
	spec := &Spec{
		Name:       "test-retry",
		Seed:       5,
		Trials:     20,
		MaxRetries: 3,
		Points: []PointSpec{
			{ID: "flaky", X: 1, Trial: TrialSpec{Kind: "test-flaky", N: 10, D: 1}},
		},
	}
	dir := t.TempDir()
	if _, err := Run(spec, Options{Workers: 2, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	_, samples, _, err := LoadSamples(dir)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range samples {
		if s.Failed {
			failed++
			if s.Retries != spec.MaxRetries {
				t.Errorf("failed trial %d recorded %d retries, want %d", s.Trial, s.Retries, spec.MaxRetries)
			}
			if !strings.Contains(s.Err, "deterministic failure") {
				t.Errorf("failed trial %d: err = %q, want captured panic message", s.Trial, s.Err)
			}
		} else if s.Retries != 0 {
			t.Errorf("deterministically succeeding trial %d recorded %d retries", s.Trial, s.Retries)
		}
	}
	if failed == 0 {
		t.Fatal("expected some failed samples in the checkpoint")
	}
}

func TestAdaptiveStoppingSavesBudgetDeterministically(t *testing.T) {
	// Point b has the widest spread (scale 9); a loose relative target
	// stops the tighter points early.
	spec := cheapSpec(200, &StopRule{MinTrials: 10, HalfWidth: 0.25, Relative: true})
	r1, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.SavedTrials == 0 {
		t.Fatal("expected the stop rule to save budget on 200-trial points")
	}
	stopped := 0
	for _, p := range r1.Points {
		if p.StoppedEarly {
			stopped++
			if p.Consumed >= p.Budget || p.SavedTrials != p.Budget-p.Consumed {
				t.Errorf("point %s: consumed=%d budget=%d saved=%d", p.ID, p.Consumed, p.Budget, p.SavedTrials)
			}
			if p.Consumed < 10 {
				t.Errorf("point %s stopped before min_trials: %d", p.ID, p.Consumed)
			}
			if !p.Complete {
				t.Errorf("stopped point %s must report complete", p.ID)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no point stopped early")
	}
	// The stop index is decided on the in-order stream: byte-identical
	// across worker counts even though in-flight overshoot differs.
	r8, err := Run(spec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, r1)) != string(reportJSON(t, r8)) {
		t.Error("adaptive-stop reports differ across worker counts")
	}
}

func TestResumeRefusesChangedSpec(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(5, nil)
	if _, err := Run(spec, Options{Dir: dir, HaltAfter: 2}); err != nil {
		t.Fatal(err)
	}
	edited := cheapSpec(5, nil)
	edited.Points[0].Trial.D = 99
	_, err := Run(edited, Options{Dir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("resume under an edited spec: err = %v, want spec-hash refusal", err)
	}
	// A fresh (non-resume) run into a dir holding a different spec's
	// checkpoint must also refuse rather than clobber.
	_, err = Run(edited, Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Errorf("overwrite with different spec: err = %v, want refusal", err)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(6, nil)
	full, err := Run(spec, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: tear the last line of one shard.
	shard := filepath.Join(dir, shardName(0))
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// Resume reruns the torn trial (it is deterministic) and converges to
	// the identical report, while surfacing that one line was skipped.
	resumed, err := Run(spec, Options{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SkippedLines != 1 {
		t.Errorf("resumed report SkippedLines = %d, want the torn line counted", resumed.SkippedLines)
	}
	resumed.SkippedLines = 0 // metadata, not measurement: the data must match exactly
	if string(reportJSON(t, full)) != string(reportJSON(t, resumed)) {
		t.Error("report after torn-tail resume differs from the clean run")
	}
}

func TestMergeShardedRuns(t *testing.T) {
	spec := cheapSpec(8, nil)
	base := t.TempDir()
	d0, d1, whole, merged := filepath.Join(base, "s0"), filepath.Join(base, "s1"), filepath.Join(base, "whole"), filepath.Join(base, "merged")
	if _, err := Run(spec, Options{Dir: d0, PointLo: 0, PointHi: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Dir: d1, PointLo: 1, PointHi: 3}); err != nil {
		t.Fatal(err)
	}
	wholeReport, err := Run(spec, Options{Dir: whole})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(merged, []string{d0, d1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete || m.Recorded != 3*8 {
		t.Errorf("merged manifest: complete=%v recorded=%d, want complete with 24 samples", m.Complete, m.Recorded)
	}
	mergedReport, err := ReportDir(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, wholeReport)) != string(reportJSON(t, mergedReport)) {
		t.Error("merged sharded report differs from the whole-grid run")
	}
	// Merging checkpoints of different specs must refuse.
	other := cheapSpec(9, nil)
	dOther := filepath.Join(base, "other")
	if _, err := Run(other, Options{Dir: dOther}); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(filepath.Join(base, "bad"), []string{d0, dOther}, false); err == nil {
		t.Error("merging different specs must fail")
	}
}

func TestPresetsBuildValidSpecs(t *testing.T) {
	for _, name := range Presets() {
		for _, scale := range []string{"small", "medium", "full"} {
			spec, err := Preset(name, scale, 2006, 0)
			if err != nil {
				t.Errorf("Preset(%s, %s): %v", name, scale, err)
				continue
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("Preset(%s, %s) invalid: %v", name, scale, err)
			}
		}
		if _, err := Preset(name, "bogus", 2006, 0); name != "smoke" && err == nil {
			t.Errorf("Preset(%s, bogus) must fail", name)
		}
	}
	if _, err := Preset("no-such-preset", "small", 1, 0); err == nil {
		t.Error("unknown preset must fail")
	}
}

func TestReportDirOnIncompleteCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(10, nil)
	if _, err := Run(spec, Options{Dir: dir, HaltAfter: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := ReportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Complete {
		t.Error("halted checkpoint must report incomplete")
	}
	total := 0
	for _, p := range r.Points {
		total += p.Consumed
	}
	if total == 0 || total >= 30 {
		t.Errorf("halted checkpoint consumed %d trials in report, want a proper prefix", total)
	}
}

package campaign

import (
	"path/filepath"
	"strings"
	"testing"
)

// Lane-engine acceptance tests: the report of a lane-sensitive campaign
// must be byte-identical for every -lanes setting that selects the lane
// engine (>= 2, and 0 = auto), lane-insensitive specs must not care at
// all, and checkpoints must refuse to mix the lane and scalar streams of
// a lane-sensitive spec.

func laneSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Preset("lane-smoke", "small", 2006, 6)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestLaneCountInvariance(t *testing.T) {
	spec := laneSpec(t)
	base, err := Run(spec, Options{Lanes: 2, Dir: filepath.Join(t.TempDir(), "l2")})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseText := renderings(t, base)
	for _, lanesN := range []int{0, 7, 64} {
		r, err := Run(spec, Options{Lanes: lanesN, Dir: filepath.Join(t.TempDir(), "lN")})
		if err != nil {
			t.Fatal(err)
		}
		j, txt := renderings(t, r)
		if j != baseJSON {
			t.Errorf("JSON report with Lanes=%d differs from Lanes=2", lanesN)
		}
		if txt != baseText {
			t.Errorf("text report with Lanes=%d differs from Lanes=2", lanesN)
		}
	}
}

func TestLaneWorkerInvariance(t *testing.T) {
	spec := laneSpec(t)
	base, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, _ := renderings(t, base)
	for _, workers := range []int{3, 8} {
		r, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := renderings(t, r); j != baseJSON {
			t.Errorf("lane report with %d workers differs from 1 worker", workers)
		}
	}
}

// TestCollisionRateLaneInvariance: a fixed-graph collision-rate point
// runs on observed lane blocks, so its spec is lane-sensitive, and its
// report is byte-identical for every lane setting that picks the lane
// engine and every worker count — and differs from the scalar stream.
func TestCollisionRateLaneInvariance(t *testing.T) {
	spec := &Spec{Name: "collision-rate-fixed", Seed: 2006, Trials: 70, Points: []PointSpec{
		{ID: "cr-n300", X: 300, Trial: TrialSpec{Kind: "collision-rate", N: 300, D: 10, FixedGraph: true}},
	}}
	if tag := EngineTag(spec, 64); tag != EngineLanes {
		t.Fatalf("engine tag %q, want %q", tag, EngineLanes)
	}
	var base string
	for _, lanesN := range []int{0, 2, 64} {
		for _, workers := range []int{1, 4} {
			r, err := Run(spec, Options{Lanes: lanesN, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			j, _ := renderings(t, r)
			if base == "" {
				base = j
			} else if j != base {
				t.Errorf("report with Lanes=%d Workers=%d differs from Lanes=0 Workers=1", lanesN, workers)
			}
		}
	}
	scalar, err := Run(spec, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := renderings(t, scalar); j == base {
		t.Error("the scalar engine reproduced the lane report: the lane path did not run")
	}
}

// TestScalarFallbackIgnoresLanes: a spec with no fixed-graph point never
// touches the lane engine, so every Lanes setting — including the scalar
// 1 — yields the same bytes, and its checkpoints carry the scalar tag.
func TestScalarFallbackIgnoresLanes(t *testing.T) {
	spec := simSpecScalar()
	base, err := Run(spec, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, _ := renderings(t, base)
	r, err := Run(spec, Options{Lanes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := renderings(t, r); j != baseJSON {
		t.Error("lane-insensitive report differs between Lanes=1 and Lanes=64")
	}
}

// simSpecScalar is simSpec without its fixed-graph point: fresh graphs
// every trial, so no point is lane-capable.
func simSpecScalar() *Spec {
	spec := simSpec()
	points := spec.Points[:0]
	for _, p := range spec.Points {
		if !batchablePoint(p) {
			points = append(points, p)
		}
	}
	spec.Points = points
	spec.Name = "invariance-sim-scalar"
	return spec
}

// TestResumeEngineMismatch: a halted lane run must refuse to resume
// under the scalar engine (and vice versa) — the two draw different
// randomness streams, so mixing them inside one checkpoint would break
// the byte-identical-resume guarantee.
func TestResumeEngineMismatch(t *testing.T) {
	spec := laneSpec(t)
	dir := filepath.Join(t.TempDir(), "ck")
	partial, err := Run(spec, Options{Dir: dir, HaltAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete {
		t.Fatal("halted run must be incomplete")
	}
	if _, err := Run(spec, Options{Dir: dir, Resume: true, Lanes: 1}); err == nil {
		t.Fatal("resuming a lane checkpoint with the scalar engine must fail")
	} else if !strings.Contains(err.Error(), "-lanes") {
		t.Errorf("mismatch error should mention -lanes, got: %v", err)
	}
	// Resuming under any lane setting >= 2 is fine and must converge to
	// the uninterrupted report.
	resumed, err := Run(spec, Options{Dir: dir, Resume: true, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete {
		t.Fatal("resumed run must complete")
	}
	full, err := Run(spec, Options{Dir: filepath.Join(t.TempDir(), "full")})
	if err != nil {
		t.Fatal(err)
	}
	fj, ft := renderings(t, full)
	rj, rt := renderings(t, resumed)
	if fj != rj || ft != rt {
		t.Error("resumed lane report differs from uninterrupted run")
	}
}

// TestResumeEngineMismatchInsensitive: a spec with no lane-capable point
// always tags its checkpoints scalar, so any Lanes setting may resume it.
func TestResumeEngineMismatchInsensitive(t *testing.T) {
	spec := simSpecScalar()
	dir := filepath.Join(t.TempDir(), "ck")
	if _, err := Run(spec, Options{Dir: dir, HaltAfter: 2, Lanes: 64}); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(spec, Options{Dir: dir, Resume: true, Lanes: 1})
	if err != nil {
		t.Fatalf("lane-insensitive resume must accept any Lanes setting: %v", err)
	}
	if !resumed.Complete {
		t.Fatal("resumed run must complete")
	}
}

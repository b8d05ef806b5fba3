package campaign

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestSampleSetAddConflictAndBounds: identical duplicates merge silently,
// conflicting duplicates and off-grid coordinates are errors.
func TestSampleSetAddConflictAndBounds(t *testing.T) {
	spec := cheapSpec(4, nil)
	set := NewSampleSet(spec)
	s := Sample{Point: 1, PointID: "b", Trial: 2, Seed: 9, Value: 0.5, OK: true}
	if added, err := set.Add(s); err != nil || !added {
		t.Fatalf("first add: added=%v err=%v", added, err)
	}
	if added, err := set.Add(s); err != nil || added {
		t.Fatalf("identical duplicate: added=%v err=%v, want merged silently", added, err)
	}
	conflict := s
	conflict.Value = 0.7
	if _, err := set.Add(conflict); err == nil || !strings.Contains(err.Error(), "conflicting duplicate") {
		t.Fatalf("conflicting duplicate: err=%v, want conflict error", err)
	}
	for _, bad := range []Sample{
		{Point: 3, PointID: "d", Trial: 0},  // point off grid
		{Point: 0, PointID: "a", Trial: 4},  // trial over budget
		{Point: 0, PointID: "zz", Trial: 0}, // id contradicts spec
	} {
		if _, err := set.Add(bad); err == nil {
			t.Errorf("Add(%+v) accepted, want error", bad)
		}
	}
	if set.Len() != 1 {
		t.Fatalf("Len = %d after one distinct add", set.Len())
	}
}

// TestSampleSetReportMatchesRun: a set fed from a run's Sink — in
// scheduling-dependent completion order — renders the identical report.
// This is the cluster aggregation path in miniature.
func TestSampleSetReportMatchesRun(t *testing.T) {
	spec := cheapSpec(8, nil)
	set := NewSampleSet(spec)
	var sinkErr error
	report, err := Run(spec, Options{Sink: func(s *Sample) {
		if _, err := set.Add(*s); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if !set.Complete() || !set.RangeComplete(0, len(spec.Points)) {
		t.Fatal("set fed from a complete run reports incomplete")
	}
	if got, want := string(reportJSON(t, set.Report())), string(reportJSON(t, report)); got != want {
		t.Errorf("SampleSet report differs from the run's:\n%s\nvs\n%s", got, want)
	}
}

// TestSampleSetRangeComplete: per-point completion is tracked
// independently of the rest of the grid (a shard worker cannot use the
// whole-campaign check).
func TestSampleSetRangeComplete(t *testing.T) {
	spec := cheapSpec(4, nil)
	set := NewSampleSet(spec)
	if _, err := Run(spec, Options{PointLo: 1, PointHi: 2, Sink: func(s *Sample) { set.Add(*s) }}); err != nil {
		t.Fatal(err)
	}
	if !set.RangeComplete(1, 2) {
		t.Error("completed slice [1,2) reports incomplete")
	}
	if set.RangeComplete(0, 2) || set.Complete() {
		t.Error("untouched points report complete")
	}
}

// TestMergeRejectsOverlappingShards is the regression test for the old
// silently-unioning merge: two checkpoints whose -points slices overlap
// must fail a plain merge (the same range ran twice — wasted compute and
// probably a sharding mistake), while -allow-overlap unions identical
// duplicates and still matches the whole-grid run.
func TestMergeRejectsOverlappingShards(t *testing.T) {
	spec := cheapSpec(6, nil)
	base := t.TempDir()
	d0, d1 := filepath.Join(base, "s0"), filepath.Join(base, "s1")
	if _, err := Run(spec, Options{Dir: d0, PointLo: 0, PointHi: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Dir: d1, PointLo: 1, PointHi: 3}); err != nil {
		t.Fatal(err)
	}
	_, err := Merge(filepath.Join(base, "strict"), []string{d0, d1}, false)
	if err == nil {
		t.Fatal("merging overlapping slices [0,2) and [1,3) succeeded, want overlap error")
	}
	for _, want := range []string{"overlap", d0, d1} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("overlap error %q does not name %q", err, want)
		}
	}
	merged := filepath.Join(base, "union")
	m, err := Merge(merged, []string{d0, d1}, true)
	if err != nil {
		t.Fatalf("-allow-overlap merge: %v", err)
	}
	if !m.Complete {
		t.Errorf("overlapping slices cover the grid; merged manifest says incomplete")
	}
	whole, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mergedReport, err := ReportDir(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(reportJSON(t, whole)) != string(reportJSON(t, mergedReport)) {
		t.Error("allow-overlap merged report differs from the whole-grid run")
	}
}

// TestMergeRejectsConflictingDuplicates: same coordinates with different
// content is corruption (or an engine mismatch), never tolerated even
// under -allow-overlap.
func TestMergeRejectsConflictingDuplicates(t *testing.T) {
	spec := cheapSpec(2, nil)
	base := t.TempDir()
	d0, d1 := filepath.Join(base, "s0"), filepath.Join(base, "s1")
	mk := func(dir string, value float64) {
		t.Helper()
		ck, err := CreateCheckpoint(dir, spec, EngineScalar)
		if err != nil {
			t.Fatal(err)
		}
		ck.Append(&Sample{Point: 0, PointID: "a", Trial: 0, Seed: 1, Value: value, OK: true})
		if err := ck.Flush(false); err != nil {
			t.Fatal(err)
		}
		ck.Close()
	}
	mk(d0, 0.25)
	mk(d1, 0.75)
	for _, allow := range []bool{false, true} {
		_, err := Merge(filepath.Join(base, fmt.Sprintf("bad-%v", allow)), []string{d0, d1}, allow)
		if err == nil || !strings.Contains(err.Error(), "conflicting duplicate") {
			t.Errorf("allowOverlap=%v: err=%v, want conflicting-duplicate error", allow, err)
		}
	}
}

package campaign

import (
	"fmt"
	"sort"
)

// This file is the shard extraction/import layer the cluster subsystem
// builds on: a SampleSet accumulates samples from many producers (local
// runs, remote workers, checkpoint shards) with duplicate and conflict
// detection. Shard results themselves travel as one JSON body (the
// cluster's ShardResult) whose samples are merged here. Everything here
// preserves the campaign determinism contract: a sample is a pure
// function of (spec, point, trial), so identical duplicates are merged
// silently while a conflicting duplicate — same coordinates, different
// content — is always an error, because it can only mean corruption or
// an engine mismatch.

// SampleSet is a deduplicating, conflict-checking collection of samples
// recorded under one spec. It is not safe for concurrent use; callers
// serialize access (the cluster coordinator adds under its own lock).
type SampleSet struct {
	spec *Spec
	m    map[key]*Sample
}

// NewSampleSet returns an empty set for spec.
func NewSampleSet(spec *Spec) *SampleSet {
	return &SampleSet{spec: spec, m: make(map[key]*Sample)}
}

// Add records one sample. It returns added=false for a duplicate that is
// byte-for-byte identical to the recorded one (harmless: samples are
// pure functions of their coordinates), and an error for a sample with
// coordinates outside the spec grid, a point id contradicting the spec,
// or a conflicting duplicate — same (point, trial), different content —
// which indicates corruption or mixed engines, never a benign race.
func (ss *SampleSet) Add(s Sample) (added bool, err error) {
	if s.Point < 0 || s.Point >= len(ss.spec.Points) || s.Trial < 0 || s.Trial >= ss.spec.Trials {
		return false, fmt.Errorf("campaign: sample (point %d, trial %d) outside the %d-point × %d-trial grid",
			s.Point, s.Trial, len(ss.spec.Points), ss.spec.Trials)
	}
	if s.PointID != ss.spec.Points[s.Point].ID {
		return false, fmt.Errorf("campaign: sample for point %d carries id %q, spec says %q",
			s.Point, s.PointID, ss.spec.Points[s.Point].ID)
	}
	if prev, ok := ss.m[key{s.Point, s.Trial}]; ok {
		if *prev != s {
			return false, fmt.Errorf("campaign: conflicting duplicate for point %d trial %d: recorded %+v, got %+v (corruption or engine mismatch)",
				s.Point, s.Trial, *prev, s)
		}
		return false, nil
	}
	cp := s
	ss.m[key{s.Point, s.Trial}] = &cp
	return true, nil
}

// AddAll adds every sample, returning the ones actually new (in input
// order) or the first error.
func (ss *SampleSet) AddAll(samples []Sample) (added []*Sample, err error) {
	for _, s := range samples {
		ok, err := ss.Add(s)
		if err != nil {
			return nil, err
		}
		if ok {
			added = append(added, ss.m[key{s.Point, s.Trial}])
		}
	}
	return added, nil
}

// Len returns the number of distinct samples recorded.
func (ss *SampleSet) Len() int { return len(ss.m) }

// Sorted returns the samples in grid order (point, then trial) — the
// deterministic order used for wire encoding and checkpoint merges.
func (ss *SampleSet) Sorted() []Sample {
	keys := make([]key, 0, len(ss.m))
	for k := range ss.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].point != keys[j].point {
			return keys[i].point < keys[j].point
		}
		return keys[i].trial < keys[j].trial
	})
	out := make([]Sample, len(keys))
	for i, k := range keys {
		out[i] = *ss.m[k]
	}
	return out
}

// Report aggregates the recorded samples exactly like a live run does —
// the single BuildReport path — so a set assembled from distributed
// shard results renders byte-identically to a single-machine run that
// produced the same samples.
func (ss *SampleSet) Report() *Report { return BuildReport(ss.spec, ss.m) }

// Complete reports whether the recorded samples finish the whole
// campaign (every point's budget exhausted or adaptively stopped on its
// in-order prefix).
func (ss *SampleSet) Complete() bool { return ss.RangeComplete(0, len(ss.spec.Points)) }

// RangeComplete reports whether every point in [lo, hi) needs no more
// trials given the recorded in-order prefix. This is the shard
// completion check: a worker's result must complete its leased range,
// and a resuming coordinator re-derives shard state from it.
func (ss *SampleSet) RangeComplete(lo, hi int) bool {
	for p := lo; p < hi; p++ {
		agg := newPointAgg(ss.spec)
		for t := 0; t < ss.spec.Trials; t++ {
			s, ok := ss.m[key{p, t}]
			if !ok {
				break
			}
			agg.feed(s)
		}
		if !agg.done() {
			return false
		}
	}
	return true
}

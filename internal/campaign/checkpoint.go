package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/trace"
)

// Sample is one completed trial as recorded in the checkpoint: one JSON
// line per sample, following the trace.JSONLWriter conventions (fixed
// field order, one object per line). A sample is a pure function of
// (spec, point, trial), so duplicate records — possible after a crash
// between a shard append and a manifest rewrite — are identical and
// deduplicate trivially on load.
type Sample struct {
	// Point is the point index in the spec grid.
	Point int `json:"point"`
	// PointID is the point's stable identifier (redundant with Point; a
	// guard against reading a checkpoint with a reordered spec).
	PointID string `json:"id"`
	// Trial is the trial index within the point, 0-based.
	Trial int `json:"trial"`
	// Seed is the derived trial seed, recorded for replay/debugging.
	Seed uint64 `json:"seed"`
	// Value is the scalar measurement (0 when Failed).
	Value float64 `json:"value"`
	// OK is the trial-level success flag (broadcast completed, ...).
	OK bool `json:"ok"`
	// Failed records a trial that panicked on every attempt; its Value is
	// meaningless and excluded from value aggregates.
	Failed bool `json:"failed,omitempty"`
	// Err is the captured panic message of a failed trial.
	Err string `json:"err,omitempty"`
	// Retries is how many extra attempts the trial needed (deterministic:
	// a panicking seed panics identically on every attempt).
	Retries int `json:"retries,omitempty"`
}

// key identifies a sample within a campaign.
type key struct{ point, trial int }

// Manifest is the checkpoint directory's metadata, rewritten atomically
// (tmp + rename) so a reader never observes a torn manifest.
type Manifest struct {
	Version  int      `json:"version"`
	Name     string   `json:"name"`
	SpecHash string   `json:"spec_hash"`
	Spec     *Spec    `json:"spec"`
	Shards   []string `json:"shards"`
	// Recorded is the number of samples flushed to the shards at the last
	// manifest rewrite (shards may contain a few more after a crash).
	Recorded int `json:"recorded"`
	// Complete reports that the campaign ran to completion (every point
	// exhausted its budget or stopped adaptively).
	Complete bool `json:"complete"`
	// Engine records which trial engine produced the samples: "" (or a
	// missing field, in checkpoints recorded before lane batching) for the
	// scalar per-trial engine, EngineLanes for the bit-parallel lane
	// engine. The two draw different — distributionally identical —
	// randomness streams for lane-capable points, so resuming or merging a
	// lane-sensitive spec refuses a mismatch rather than silently mixing
	// streams within one checkpoint.
	Engine string `json:"engine,omitempty"`
	// Leases is the cluster coordinator's shard bookkeeping, recorded so
	// a restarted coordinator resumes with its lease history visible (the
	// samples themselves remain the source of truth for what is done —
	// see SampleSet.RangeComplete). Empty for single-machine runs.
	Leases []ShardLease `json:"leases,omitempty"`
}

// ShardLease is one shard's lease record as persisted in the manifest by
// a cluster coordinator: which point range it covers, its current state
// in the lease state machine (pending → leased → completed | failed),
// how many leases it consumed, and the last worker it was granted to.
type ShardLease struct {
	ID       string `json:"id"`
	PointLo  int    `json:"point_lo"`
	PointHi  int    `json:"point_hi"`
	State    string `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Worker   string `json:"worker,omitempty"`
}

// Engine tags recorded in Manifest.Engine.
const (
	EngineScalar = ""      // scalar per-trial engine (and all pre-lane checkpoints)
	EngineLanes  = "lanes" // bit-parallel lane engine (lane-capable points only)
)

// engineName renders an engine tag for error messages.
func engineName(e string) string {
	if e == EngineScalar {
		return "scalar"
	}
	return e
}

const (
	manifestVersion = 1
	manifestName    = "manifest.json"
)

// shardName returns the file name of checkpoint shard i.
func shardName(i int) string { return fmt.Sprintf("samples-%02d.jsonl", i) }

// shardOf maps a sample to its shard deterministically, so re-recording
// the same trial after a crash or during a merge lands in the same file.
func shardOf(point, trial, shards int) int {
	return (point*31 + trial) % shards
}

// Checkpoint is an open checkpoint directory: sharded JSONL sample logs
// plus the manifest. All methods must be called from one goroutine (the
// campaign collector).
type Checkpoint struct {
	dir      string
	spec     *Spec
	engine   string // Manifest.Engine tag of this run
	files    []*os.File
	encs     []*trace.LineEncoder
	recorded int
	skipped  int          // corrupt shard lines skipped on open (resume only)
	leases   []ShardLease // cluster lease bookkeeping, written with the manifest
}

// SetLeases replaces the lease bookkeeping persisted with the next
// manifest rewrite (Flush). The cluster coordinator snapshots its lease
// table here so a restarted coordinator sees where every shard stood.
func (c *Checkpoint) SetLeases(leases []ShardLease) { c.leases = leases }

// CreateCheckpoint initialises dir (creating it if needed) for a fresh
// campaign run recording samples from the given engine (EngineScalar or
// EngineLanes). It refuses a directory that already holds a checkpoint
// for a different spec; with the same spec it truncates and starts over
// (use OpenCheckpoint + resume to keep recorded samples).
func CreateCheckpoint(dir string, spec *Spec, engine string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating checkpoint dir: %w", err)
	}
	if m, err := ReadManifest(dir); err == nil && m.SpecHash != spec.Hash() {
		return nil, fmt.Errorf("campaign: %s holds a checkpoint for spec %q (hash %s); refusing to overwrite with spec %q (hash %s)",
			dir, m.Name, m.SpecHash, spec.Name, spec.Hash())
	}
	c := &Checkpoint{dir: dir, spec: spec, engine: engine}
	for i := 0; i < spec.shards(); i++ {
		f, err := os.Create(filepath.Join(dir, shardName(i)))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("campaign: creating shard: %w", err)
		}
		c.files = append(c.files, f)
		c.encs = append(c.encs, trace.NewLineEncoder(f))
	}
	if err := c.writeManifest(false); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// OpenCheckpoint opens an existing checkpoint directory for appending
// (resume). It verifies the spec hash and returns the deduplicated
// samples already recorded; corrupt lines anywhere in a shard (a line
// torn by a crash, disk corruption) are skipped and counted — see
// Checkpoint.SkippedLines — and the affected records simply rerun.
func OpenCheckpoint(dir string, spec *Spec, engine string) (*Checkpoint, map[key]*Sample, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if m.SpecHash != spec.Hash() {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s was recorded under spec hash %s, current spec hashes to %s; seeds are tied to the spec, refusing to resume",
			dir, m.SpecHash, spec.Hash())
	}
	if m.Engine != engine && spec.laneSensitive() {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s was recorded by the %s engine, this run uses the %s engine; the streams differ for lane-capable points, refusing to mix them (rerun with the matching -lanes setting)",
			dir, engineName(m.Engine), engineName(engine))
	}
	samples, skipped, err := loadSamples(dir, m, spec)
	if err != nil {
		return nil, nil, err
	}
	c := &Checkpoint{dir: dir, spec: spec, engine: engine, recorded: len(samples), skipped: skipped, leases: m.Leases}
	for i := 0; i < spec.shards(); i++ {
		f, err := os.OpenFile(filepath.Join(dir, shardName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("campaign: opening shard: %w", err)
		}
		c.files = append(c.files, f)
		c.encs = append(c.encs, trace.NewLineEncoder(f))
	}
	return c, samples, nil
}

// ReadManifest reads and decodes dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("campaign: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("campaign: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("campaign: manifest version %d, this build reads %d", m.Version, manifestVersion)
	}
	if m.Spec == nil {
		return nil, errors.New("campaign: manifest has no spec")
	}
	return &m, nil
}

// LoadSamples returns the deduplicated samples recorded in a checkpoint
// directory, keyed for the aggregator, using the manifest's own spec,
// plus the number of corrupt lines the loader skipped (see loadSamples).
func LoadSamples(dir string) (*Manifest, map[key]*Sample, int, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	samples, skipped, err := loadSamples(dir, m, m.Spec)
	return m, samples, skipped, err
}

// loadSamples reads every shard and returns the deduplicated samples
// plus the number of lines it had to skip. A skipped line is any record
// the loader cannot trust — unparseable JSON (a line torn by a crash
// mid-append, or disk corruption anywhere in the file), coordinates
// outside the spec grid, or a point id that contradicts the (already
// hash-verified) spec. Skipping instead of aborting keeps a multi-hour
// campaign resumable after a single bad line: the skipped trials simply
// rerun, and callers surface the count so silent corruption is still
// visible in the report.
func loadSamples(dir string, m *Manifest, spec *Spec) (map[key]*Sample, int, error) {
	samples := make(map[key]*Sample)
	skipped := 0
	for _, name := range m.Shards {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // manifest ahead of a crashed shard create
			}
			return nil, skipped, fmt.Errorf("campaign: opening shard: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var s Sample
			if err := json.Unmarshal(line, &s); err != nil {
				skipped++
				continue
			}
			if s.Point < 0 || s.Point >= len(spec.Points) || s.Trial < 0 || s.Trial >= spec.Trials {
				skipped++
				continue
			}
			if s.PointID != spec.Points[s.Point].ID {
				skipped++
				continue
			}
			cp := s
			samples[key{s.Point, s.Trial}] = &cp
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, skipped, fmt.Errorf("campaign: scanning shard %s: %w", name, err)
		}
	}
	return samples, skipped, nil
}

// Append records one sample in its shard. The write is buffered; Flush
// persists it.
func (c *Checkpoint) Append(s *Sample) {
	c.encs[shardOf(s.Point, s.Trial, len(c.encs))].Encode(s)
	c.recorded++
}

// Recorded returns the number of samples recorded (including any loaded
// on open).
func (c *Checkpoint) Recorded() int { return c.recorded }

// SkippedLines returns the number of corrupt shard lines the loader
// skipped when this checkpoint was opened for resume (0 for a fresh
// checkpoint).
func (c *Checkpoint) SkippedLines() int { return c.skipped }

// Flush persists buffered samples and atomically rewrites the manifest.
// complete marks the campaign finished.
func (c *Checkpoint) Flush(complete bool) error {
	for i, enc := range c.encs {
		if err := enc.Flush(); err != nil {
			return fmt.Errorf("campaign: flushing shard %d: %w", i, err)
		}
	}
	return c.writeManifest(complete)
}

func (c *Checkpoint) writeManifest(complete bool) error {
	shards := make([]string, c.spec.shards())
	for i := range shards {
		shards[i] = shardName(i)
	}
	m := Manifest{
		Version:  manifestVersion,
		Name:     c.spec.Name,
		SpecHash: c.spec.Hash(),
		Spec:     c.spec,
		Shards:   shards,
		Recorded: c.recorded,
		Complete: complete,
		Engine:   c.engine,
		Leases:   c.leases,
	}
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encoding manifest: %w", err)
	}
	tmp := filepath.Join(c.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, manifestName)); err != nil {
		return fmt.Errorf("campaign: renaming manifest: %w", err)
	}
	return nil
}

// Close closes the shard files without flushing buffered records; call
// Flush first for a clean shutdown.
func (c *Checkpoint) Close() error {
	var first error
	for _, f := range c.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Merge unions the samples of several checkpoint directories recorded
// under the same spec (for example distributed across machines with
// disjoint -points slices) into a fresh checkpoint at dst. The sources
// are expected to cover DISJOINT shard ranges: a (point, trial) recorded
// by two different sources means overlapping -points slices (wasted
// compute, probably a sharding mistake) and Merge reports it as an error
// instead of silently unioning. allowOverlap relaxes that for identical
// duplicates, which are then merged silently (useful when re-merging a
// superset, or after re-running a shard for verification); a conflicting
// duplicate — same coordinates, different content — is always an error,
// since samples are pure functions of their coordinates and a divergence
// means corruption or an engine mismatch.
func Merge(dst string, srcs []string, allowOverlap bool) (*Manifest, error) {
	if len(srcs) == 0 {
		return nil, errors.New("campaign: merge needs at least one source")
	}
	var spec *Spec
	var hash, engine string
	var set *SampleSet
	owner := make(map[key]string) // which source first recorded a key
	for _, src := range srcs {
		m, samples, _, err := LoadSamples(src)
		if err != nil {
			return nil, err
		}
		if spec == nil {
			spec, hash, engine = m.Spec, m.SpecHash, m.Engine
			set = NewSampleSet(spec)
		} else if m.SpecHash != hash {
			return nil, fmt.Errorf("campaign: %s was recorded under spec hash %s, %s under %s; refusing to merge different specs",
				srcs[0], hash, src, m.SpecHash)
		} else if m.Engine != engine && spec.laneSensitive() {
			return nil, fmt.Errorf("campaign: %s was recorded by the %s engine, %s by the %s engine; the streams differ for lane-capable points, refusing to merge them",
				srcs[0], engineName(engine), src, engineName(m.Engine))
		}
		// Iterate in grid order so any error names the lowest offending
		// coordinates deterministically.
		keys := make([]key, 0, len(samples))
		for k := range samples {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].point != keys[j].point {
				return keys[i].point < keys[j].point
			}
			return keys[i].trial < keys[j].trial
		})
		for _, k := range keys {
			added, err := set.Add(*samples[k])
			if err != nil {
				return nil, fmt.Errorf("campaign: merging %s into %s: %w", src, dst, err)
			}
			if added {
				owner[k] = src
			} else if !allowOverlap {
				return nil, fmt.Errorf("campaign: %s and %s overlap: both record point %d trial %d (identical values, so the same range ran twice — merge disjoint -points slices, or pass -allow-overlap to union anyway)",
					owner[k], src, k.point, k.trial)
			}
		}
	}
	c, err := CreateCheckpoint(dst, spec, engine)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// Deterministic shard contents: append in grid order.
	sorted := set.Sorted()
	for i := range sorted {
		c.Append(&sorted[i])
	}
	complete := set.Complete()
	if err := c.Flush(complete); err != nil {
		return nil, err
	}
	return ReadManifest(dst)
}

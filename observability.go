package repro

// Facade over the round-level observability layer (internal/trace): an
// Observer attached to a run — via WithObserver or Engine.Attach —
// receives one RoundRecord per executed round, bracketed by
// BeginRun/EndRun. Observation is zero-cost when disabled and consumes no
// randomness, so observed and unobserved runs are bit-for-bit identical.

import (
	"io"

	"repro/internal/trace"
)

type (
	// Observer receives the per-round stream of a simulation run.
	Observer = trace.Observer
	// RoundRecord describes one executed round: transmitters, clean
	// receptions, collisions, silent listeners, frontier growth and the
	// cumulative informed count.
	RoundRecord = trace.RoundRecord
	// RunInfo describes a run at BeginRun time.
	RunInfo = trace.RunInfo
	// RunSummary describes a finished run at EndRun time.
	RunSummary = trace.Summary
	// Counters is an Observer accumulating aggregate metrics across runs;
	// its totals always agree with Result.Stats (same accounting path).
	Counters = trace.Counters
	// Recorder is an Observer storing the complete trace in memory.
	Recorder = trace.Recorder
	// FrontierProfile is an Observer capturing per-round frontier growth —
	// the measurable analogue of Lemma 3's layer sizes |T_i| ≈ d^i.
	FrontierProfile = trace.FrontierProfile
	// JSONLWriter is an Observer streaming a run as JSON Lines.
	JSONLWriter = trace.JSONLWriter
)

// NewJSONLWriter returns an observer that streams the run to w as JSON
// Lines: a "begin" record, one "round" record per executed round, and an
// "end" record (set RoundsOnly for bare round records). Check Err after
// the run.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return trace.NewJSONLWriter(w) }

// Package trace is the round-level observability layer of the simulator:
// an Observer interface that the radio engine (and the gossip runner)
// notify once per executed round, plus a small kit of concrete observers —
// aggregate counters, a streaming JSONL writer, a Lemma-3 frontier
// profiler, a composing multiplexer and an in-memory recorder.
//
// The paper's bounds (Theorems 5–8) are statements about per-round
// dynamics — layer-by-layer growth |T_i| ≈ d^i (Lemma 3), collision rates
// under 1/d-selective transmission — so the per-round quantities carried by
// RoundRecord (transmitters, clean receptions, collisions, silent
// listeners, frontier growth) are exactly what the experiments measure.
//
// The layer is zero-cost when disabled: the engine only builds a
// RoundRecord and calls the observer when one is attached, so the untraced
// runners keep their allocation-free hot path (verified by
// TestNilObserverAllocs and BenchmarkBroadcastReuse).
//
// The package deliberately imports nothing from the simulation packages;
// internal/radio and internal/gossip import trace, never the reverse.
package trace

import "fmt"

// RoundRecord describes one executed round of a radio simulation. All
// per-round quantities partition the node set: every node either
// transmits, cleanly receives, loses the round to a collision, or hears
// silence (no transmitting neighbour).
type RoundRecord struct {
	// Round is the 1-based index of the executed round.
	Round int `json:"round"`
	// Transmitters is the number of nodes that transmitted this round
	// (after policy filtering and deduplication).
	Transmitters int `json:"tx"`
	// Successes is the number of listening nodes that cleanly received the
	// transmission this round (exactly one transmitting neighbour),
	// whether or not they were already informed.
	Successes int `json:"ok"`
	// Collisions is the number of listening nodes that lost this round to
	// two or more transmitting neighbours.
	Collisions int `json:"col"`
	// Silent is the number of listening nodes with no transmitting
	// neighbour this round (silence is indistinguishable from collision in
	// the model; the simulator can tell them apart).
	Silent int `json:"silent"`
	// NewlyInformed is the number of nodes informed for the first time
	// this round — the growth of the information frontier.
	NewlyInformed int `json:"new"`
	// Informed is the cumulative informed count after the round.
	Informed int `json:"informed"`
}

// Listeners returns the number of listening nodes this round.
func (r RoundRecord) Listeners() int { return r.Successes + r.Collisions + r.Silent }

// String formats the record for log output.
func (r RoundRecord) String() string {
	return fmt.Sprintf("round %3d: %6d transmitters, %6d clean, %6d collided, %6d newly informed, %7d total",
		r.Round, r.Transmitters, r.Successes, r.Collisions, r.NewlyInformed, r.Informed)
}

// RunInfo describes a run at the moment it starts.
type RunInfo struct {
	// N is the number of nodes in the graph.
	N int `json:"n"`
	// M is the number of edges in the graph.
	M int `json:"m"`
	// Sources is the number of initially informed nodes (1 for single-source
	// broadcast).
	Sources int `json:"sources"`
	// MaxRounds is the round budget (schedule length for schedule replays).
	MaxRounds int `json:"max_rounds"`
}

// Summary describes a completed run. It mirrors the engine's final Result
// without importing it, keeping this package dependency-free.
type Summary struct {
	// Completed reports whether every node was informed.
	Completed bool `json:"completed"`
	// Rounds is the number of rounds executed.
	Rounds int `json:"rounds"`
	// Informed is the number of informed nodes at the end.
	Informed int `json:"informed"`
	// N is the graph size.
	N int `json:"n"`
	// Transmissions, Successes, Collisions and NewlyInformed are the run
	// totals of the corresponding RoundRecord fields.
	Transmissions int `json:"tx"`
	Successes     int `json:"ok"`
	Collisions    int `json:"col"`
	NewlyInformed int `json:"new"`
}

// Observer receives the per-round stream of a simulation run. Attach one
// to an engine (Engine.Attach) or pass it to the execution layer
// (exec.Request.Observer for one trial, one per trial for a batch).
//
// Observers are not synchronised: one observer must only ever be driven by
// one engine/runner at a time. Concurrent trials use one observer each and
// merge afterwards (see exec.Executor.RunSeedsObserved and Counters.Add).
//
// Runners drive the full BeginRun / Round* / EndRun cycle. Code that steps
// an engine manually via Engine.Round only produces Round notifications.
type Observer interface {
	// BeginRun is called once before the first round of a run.
	BeginRun(RunInfo)
	// Round is called after every executed round.
	Round(RoundRecord)
	// EndRun is called once after the last round of a run.
	EndRun(Summary)
}

// TransmitterObserver is an optional extension of Observer: an observer
// that also implements it additionally receives, for every executed
// round, the effective transmitter set — after policy filtering and
// deduplication, exactly the nodes whose transmissions the engine
// simulates. The slice aliases engine-owned scratch and is only valid for
// the duration of the call; copy it to retain it.
//
// The hook exists for correctness tooling (the internal/oracle
// differential harness replays recorded transmitter sets against a naive
// reference simulator); engines check for the extension once at Attach
// time, so observers that do not implement it pay nothing.
type TransmitterObserver interface {
	// RoundTransmitters is called before the round is classified, with the
	// 1-based round index about to execute and its effective transmitter
	// set.
	RoundTransmitters(round int, tx []int32)
}

// Recorder is an Observer that stores everything it sees in memory: the
// run info, every round record, and the final summary. It is the bridge
// between the streaming observer layer and code that wants a complete
// trace as a value (cmd/radiosim's -trace, the planner example).
type Recorder struct {
	Info    RunInfo
	Records []RoundRecord
	Summary Summary
	// Began and Ended report whether the begin/end hooks fired (false when
	// the recorder only saw manually driven rounds).
	Began, Ended bool
}

// BeginRun implements Observer.
func (r *Recorder) BeginRun(info RunInfo) {
	r.Info = info
	r.Began = true
}

// Round implements Observer.
func (r *Recorder) Round(rec RoundRecord) { r.Records = append(r.Records, rec) }

// EndRun implements Observer.
func (r *Recorder) EndRun(s Summary) {
	r.Summary = s
	r.Ended = true
}

// Reset clears the recorder for reuse across runs.
func (r *Recorder) Reset() { *r = Recorder{} }

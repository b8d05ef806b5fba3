// Package cluster is the distributed campaign execution subsystem: a
// coordinator slices a campaign Spec's point grid into shards, grants
// time-bounded leases over them to a fleet of radiosimd workers, tracks
// worker liveness through heartbeats, reassigns expired or failed leases
// with bounded retries, and folds the returned samples into the exact
// report a single-machine run of the same spec produces.
//
// The protocol is push-based and has four messages:
//
//   - POST {worker}/v1/shard/lease — the coordinator OFFERS a lease
//     (LeaseOffer). The worker either admits it (LeaseAck) and runs the
//     shard in the background, or answers 429 + Retry-After when its
//     shard slots are full — backpressure the coordinator honors by
//     backing off and re-offering, exactly like the serve layer's run
//     queue.
//   - POST {coordinator}/v1/shard/{lease}/heartbeat — the worker extends
//     its lease while the shard runs. A lease whose deadline passes
//     without a heartbeat is expired and its shard reassigned.
//   - POST {coordinator}/v1/shard/{lease}/result — the worker streams the
//     shard's samples back (ShardResult). Results are idempotent: a slow
//     worker whose lease was already reassigned delivers samples that are
//     byte-identical to the replacement's (samples are pure functions of
//     their seeds), so late and duplicate results merge without conflict.
//   - GET {coordinator}/v1/cluster/status — lease table, worker liveness
//     and counters.
//
// Scheduling is event-driven, with no polling tick. The coordinator's
// loop runs a pass when a result lands or a lease offer resolves, and
// otherwise sleeps on one timer armed at the earliest live lease deadline
// and, while a shard is pending, the earliest end of a worker's back-off.
// An offer answered 400 or 422 means the worker judged the shard itself
// invalid, so the shard fails for good; 429, 5xx and connection errors
// back the worker off and re-offer.
//
// Determinism: shard assignment restricts WHICH (point, trial) cells a
// worker computes, never HOW — per-trial seeds derive from (spec seed,
// point index, trial index) alone, and the final report is built by the
// same in-order aggregation path (campaign.BuildReport) a local run
// uses. The distributed report is therefore byte-identical to the
// single-machine one, including runs where workers die mid-shard; see
// DESIGN.md §9 for the full argument.
package cluster

import (
	"fmt"

	"repro/internal/campaign"
)

// Shard is one unit of leased work: the grid points [Lo, Hi) of the
// spec, every trial of each. Shard IDs are deterministic functions of
// the plan, so a restarted coordinator re-derives the same shards.
type Shard struct {
	ID string `json:"id"`
	Lo int    `json:"lo"`
	Hi int    `json:"hi"`
}

// Plan slices the spec's point grid into shards of up to pointsPerShard
// consecutive points (<= 0 means 1: one point per shard, the finest
// grain and the default — trials of one point already parallelize across
// a worker's local pool, so finer sharding than a point buys nothing).
func Plan(spec *campaign.Spec, pointsPerShard int) []Shard {
	if pointsPerShard <= 0 {
		pointsPerShard = 1
	}
	var shards []Shard
	for lo := 0; lo < len(spec.Points); lo += pointsPerShard {
		hi := min(lo+pointsPerShard, len(spec.Points))
		shards = append(shards, Shard{ID: fmt.Sprintf("s%03d", len(shards)), Lo: lo, Hi: hi})
	}
	return shards
}

// LeaseOffer is the coordinator → worker lease grant offer: the full
// spec (workers are stateless), the shard's point range, the engine
// setting every worker must share, the lease TTL the worker's heartbeats
// must beat, and the coordinator base URL to call back.
type LeaseOffer struct {
	LeaseID     string         `json:"lease_id"`
	ShardID     string         `json:"shard_id"`
	PointLo     int            `json:"point_lo"`
	PointHi     int            `json:"point_hi"`
	Spec        *campaign.Spec `json:"spec"`
	SpecHash    string         `json:"spec_hash"`
	Lanes       int            `json:"lanes"`
	TTLMs       int            `json:"ttl_ms"`
	Coordinator string         `json:"coordinator"`
	// Worker is the worker's own base URL as the coordinator addresses
	// it, echoed back in heartbeats and results so the coordinator can
	// attribute them without trusting reverse DNS.
	Worker string `json:"worker"`
}

// LeaseAck is the worker's acceptance of a lease offer.
type LeaseAck struct {
	LeaseID string `json:"lease_id"`
	ShardID string `json:"shard_id"`
	State   string `json:"state"` // "accepted"
	Worker  string `json:"worker"`
}

// Heartbeat is the worker → coordinator lease extension. The coordinator
// answers 200 with the refreshed TTL, or 410 Gone when the lease no
// longer exists (expired and reassigned, or the shard completed) — the
// worker then abandons the shard.
type Heartbeat struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

// HeartbeatAck is the coordinator's answer to a live heartbeat.
type HeartbeatAck struct {
	LeaseID string `json:"lease_id"`
	TTLMs   int    `json:"ttl_ms"`
}

// ShardResult is the worker → coordinator shard completion report:
// either the shard's samples (in grid order) or a shard-level error.
// Trial-level failures are NOT shard errors — a panicking trial is
// recorded as a failed Sample by the campaign runner and travels in
// Samples like any other; Error means the shard itself could not run.
type ShardResult struct {
	LeaseID string            `json:"lease_id"`
	ShardID string            `json:"shard_id"`
	Worker  string            `json:"worker"`
	Error   string            `json:"error,omitempty"`
	Samples []campaign.Sample `json:"samples,omitempty"`
}

// Shard lease states as reported in status and persisted in checkpoint
// manifests (campaign.ShardLease.State).
const (
	ShardPending   = "pending"   // waiting for a grantable worker
	ShardOffering  = "offering"  // offer in flight to a worker
	ShardLeased    = "leased"    // granted; heartbeats extend the deadline
	ShardCompleted = "completed" // samples imported and range complete
	ShardFailed    = "failed"    // lease budget exhausted
)

// Counters are the coordinator's cumulative cluster counters, exposed in
// /v1/cluster/status and /metrics.
type Counters struct {
	LeasesGranted    int64 `json:"leases_granted"`
	LeasesExpired    int64 `json:"leases_expired"`
	LeasesReassigned int64 `json:"leases_reassigned"`
	ShardsCompleted  int64 `json:"shards_completed"`
	ShardsFailed     int64 `json:"shards_failed"`
	ResultsDuplicate int64 `json:"results_duplicate"`
	ResultsLate      int64 `json:"results_late"`
	OffersBusy       int64 `json:"offers_busy"`
	OfferErrors      int64 `json:"offer_errors"`
}

// WorkerStatus is one worker's liveness view in the status report.
type WorkerStatus struct {
	URL          string `json:"url"`
	State        string `json:"state"` // "idle" | "busy" | "backoff"
	ActiveLeases int    `json:"active_leases"`
	ConsecFails  int    `json:"consecutive_failures"`
	// LastContactMs is milliseconds since the worker last answered an
	// offer, heartbeat or result; -1 before first contact.
	LastContactMs int64 `json:"last_contact_ms"`
}

// ShardStatus is one shard's row in the status report.
type ShardStatus struct {
	ID       string `json:"id"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Worker   string `json:"worker,omitempty"`
}

// Status is the body of GET /v1/cluster/status.
type Status struct {
	Name     string         `json:"name"`
	SpecHash string         `json:"spec_hash"`
	Done     bool           `json:"done"`
	Samples  int            `json:"samples"`
	Counters Counters       `json:"counters"`
	Shards   []ShardStatus  `json:"shards"`
	Workers  []WorkerStatus `json:"workers"`
}

// Event is the coordinator's observability hook payload (tests use it to
// inject faults at exact protocol moments, e.g. SIGKILL a worker the
// instant its lease is granted).
type Event struct {
	Type    string // "granted" | "busy" | "offer-error" | "expired" | "completed" | "failed" | "result-late" | "result-duplicate" | "result-error"
	Shard   string
	Worker  string
	Attempt int
	Err     string
}

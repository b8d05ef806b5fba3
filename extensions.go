package repro

// Facade over the extension subsystems: gossiping, crash faults,
// multi-source broadcasting, and schedule serialisation. See the
// corresponding internal packages for the full APIs.

import (
	"io"
	"math"

	"repro/internal/election"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/pipeline"
	"repro/internal/radio"
	"repro/internal/sweep"
)

// GossipResult reports an all-to-all dissemination run.
type GossipResult = gossip.Result

// Gossip runs all-to-all rumor dissemination on g under the radio model:
// every node starts with its own rumor, transmissions carry all known
// rumors, and the run ends when every node knows every rumor (or after
// maxRounds). The protocol is the Theorem-7-style phased protocol sized
// for expected degree d.
func Gossip(g *Graph, d float64, maxRounds int, rng *Rand) GossipResult {
	return gossip.Run(g, gossip.NewPhased(g.N(), d), maxRounds, rng)
}

// CrashScenario is a crash-fault pattern applied to a graph.
type CrashScenario = faults.Scenario

// Crash crashes every node except src independently with probability q
// and returns the survivor scenario; broadcast on Sub from SrcNew to
// measure fault tolerance.
func Crash(g *Graph, src int32, q float64, rng *Rand) *CrashScenario {
	return faults.Crash(g, src, q, rng)
}

// SourceSweep runs the paper's protocol once from each of k random
// sources and returns the completion rounds (MaxRounds+1 sentinel for
// incomplete runs) — the "for any u ∈ V" measurement. k is clamped to
// [0, g.N()].
func SourceSweep(g *Graph, k int, d float64, rng *Rand) []int {
	return sweep.Sources(g, k, NewProtocol(g.N(), d), MaxRounds(g.N()), rng)
}

// WriteSchedule serialises a schedule in the plain-text format read by
// ReadSchedule.
func WriteSchedule(w io.Writer, s *Schedule) error {
	_, err := s.WriteTo(w)
	return err
}

// ReadSchedule parses a schedule written by WriteSchedule.
func ReadSchedule(r io.Reader) (*Schedule, error) {
	return radio.ReadSchedule(r)
}

// KBroadcast runs k-message broadcast from src (one message per
// transmission, rarest-first selection, 1/d-selective transmission after
// a short flood). See internal/pipeline for the policy variants.
func KBroadcast(g *Graph, src int32, k int, d float64, maxRounds int, rng *Rand) pipeline.Result {
	return pipeline.Run(g, src, k, kbProtocol{d}, pipeline.RarestFirst, maxRounds, rng)
}

type kbProtocol struct{ d float64 }

func (p kbProtocol) Transmit(v int32, round int, informedAt int32, rng *Rand) bool {
	if round <= 3 {
		return true
	}
	return rng.Bernoulli(1 / math.Max(p.d, 2))
}

// ElectLeader elects a leader among n stations on a single shared channel
// knowing only the upper bound nBound, without collision detection
// (scale sweep). It returns the number of rounds used, or maxRounds+1 on
// failure.
func ElectLeader(n, nBound, maxRounds int, rng *Rand) int {
	return election.Sweep(n, nBound, maxRounds, rng)
}

// ElectLeaderCD is ElectLeader in the collision-detection model
// (Willard's binary search): O(log log nBound) expected rounds.
func ElectLeaderCD(n, nBound, maxRounds int, rng *Rand) int {
	return election.Willard(n, nBound, maxRounds, rng)
}

// BuildGridSchedule builds the collision-free, transmit-once broadcast
// schedule for a unit-disk graph with known node positions (xs[i], ys[i])
// and radio range r. See internal/geo.
func BuildGridSchedule(g *Graph, xs, ys []float64, r float64, src int32) (*Schedule, error) {
	return geo.BuildGridSchedule(g, xs, ys, r, src)
}

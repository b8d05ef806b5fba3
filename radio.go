// Package repro is a library for radio broadcasting in random graphs,
// reproducing R. Elsässer and L. Gąsieniec, "Radio communication in random
// graphs" (SPAA 2005; JCSS 72(4), 2006).
//
// The radio model: communication proceeds in synchronous rounds; in each
// round a node either transmits or listens; a listening node receives a
// message iff exactly one of its neighbours transmits (two or more
// collide and deliver nothing).
//
// The package is a small facade over the internal implementation. It
// exports exactly:
//
//   - Graph construction: GnpDegree, ConnectedGnpDegree, NewBuilder and
//     the deterministic NewRand.
//   - The simulation entry points Run, RunContext (one broadcast) and
//     RunBatch (many independent trials), configured by options:
//     WithDegree, WithProtocol, WithSchedule, WithMaxRounds,
//     WithSeed/WithRand, WithObserver, WithSources, WithContext and
//     WithEngine.
//   - The paper's centralized O(ln n/ln d + ln d) broadcast schedule
//     (Theorem 5): BuildSchedule, replayed via Run + WithSchedule.
//   - The paper's distributed randomized O(ln n) protocol (Theorem 7):
//     the Run default, sized by WithDegree; NewProtocol for custom use.
//   - The bounds the measurements are compared against: CentralizedBound,
//     DistributedBound, MaxRounds and the Eccentricity lower bound.
//   - Round-level observability: attach Counters, a JSONLWriter, a
//     FrontierProfile, a Recorder or any custom Observer via WithObserver
//     or Engine.Attach (see observability.go).
//   - The error sentinels of errors.go.
//
// Gossip, k-message broadcast, leader election, crash faults and the
// experiment registry are not part of the facade: the examples, which
// live in this module, call the internal packages, and cmd/experiments
// runs every experiment in EXPERIMENTS.md through internal/exp.
//
// # Quickstart
//
//	g := repro.GnpDegree(100_000, 25, repro.NewRand(1)) // G(n,p), E[deg] = 25
//	res, _ := repro.Run(g, 0, repro.WithDegree(25))     // distributed protocol (Thm 7)
//	fmt.Println(res.Completed, res.Rounds)
//
//	sched, err := repro.BuildSchedule(g, 0, 25, 1)      // centralized (Thm 5)
//	if err != nil { ... }
//	res, err = repro.Run(g, 0, repro.WithSchedule(sched))
//
// To watch the per-round dynamics, attach an observer:
//
//	var c repro.Counters
//	res, _ = repro.Run(g, 0, repro.WithDegree(25), repro.WithSeed(7),
//		repro.WithObserver(&c))
//	fmt.Println(c.Collisions, c.Silent)
//
// # Randomness streams and the sampled fast path
//
// Protocols whose rounds are uniform (every eligible node transmits with
// the same probability q — the paper's Theorem 7 protocol, Decay, ALOHA)
// declare that to the engine, which then draws the whole transmitter set
// at once: k ~ Binomial(m, q) followed by a k-element partial shuffle of
// the m eligible nodes, O(k) instead of one Bernoulli draw per informed
// node. The transmitter-set distribution is identical, but the stream of
// rng draws is not, so fixed-seed outputs differ between the two modes.
//
// The protocol's own declaration is the only switch. Who uses which
// stream:
//
//   - Run (with or without WithEngine) samples every round the protocol
//     declares uniform and asks every informed node in every other round.
//   - A protocol that declares no uniform rounds runs the historical
//     per-node stream, frozen bit-for-bit across releases
//     (deprecated_stream_test.go pins it with the fingerprints the
//     removed positional wrappers had).
//   - RunBatch runs uniform protocols on the bit-parallel lane engine, a
//     stream of its own (see RunBatch).
//   - Schedule replay (WithSchedule) and BuildSchedule take no per-round
//     randomness from the engine and are unaffected.
//
// Any protocol p runs on the per-node stream once its declaration is
// hidden:
//
//	repro.Run(g, 0, repro.WithProtocol(struct{ repro.Protocol }{p}))
//
// The runnable examples under examples/ exercise these entry points on the
// scenarios from the paper's motivation; cmd/experiments regenerates every
// experiment in EXPERIMENTS.md.
package repro

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Aliased types so callers can use the library without reaching into
// internal packages.
type (
	// Graph is a simple undirected graph in CSR form. It is never modified
	// once built, unless built into reused storage (Builder.BuildInto).
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// Schedule is an explicit per-round transmit schedule.
	Schedule = radio.Schedule
	// Result reports a broadcast simulation outcome.
	Result = radio.Result
	// Protocol decides, per informed node and round, whether to transmit.
	Protocol = radio.Protocol
	// Rand is the deterministic random source used everywhere.
	Rand = xrand.Rand
	// Engine is the low-level round-by-round radio simulator.
	Engine = radio.Engine
)

// NewRand returns a deterministic random source seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// GnpDegree samples G(n, d/n): a random graph with expected average degree
// d (the paper's parametrisation d = pn). It uses the block-partitioned
// parallel generator: the pair-index space is split into fixed blocks,
// each drawing from its own derived random stream, so the sample is a
// deterministic function of rng's state alone — bitwise identical for
// every GOMAXPROCS. (internal/gen.Gnp keeps the legacy serial stream that
// EXPERIMENTS.md numbers are recorded against.)
func GnpDegree(n int, d float64, rng *Rand) *Graph {
	return gen.GnpParallel(n, gen.PForDegree(n, d), rng, 0)
}

// ConnectedGnpDegree samples G(n, d/n) conditioned on connectivity (up to
// 100 attempts). ok reports whether a connected sample was found.
func ConnectedGnpDegree(n int, d float64, rng *Rand) (g *Graph, ok bool) {
	g, _, ok = gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	return g, ok
}

// NewEngine returns a low-level simulator in which only src knows the
// message; drive it with Engine.Round. Schedules containing uninformed
// transmitters are rejected.
func NewEngine(g *Graph, src int32) *Engine {
	return radio.NewEngine(g, src, radio.StrictInformed)
}

// BuildSchedule constructs the paper's centralized broadcast schedule
// (Theorem 5) for a connected graph g with expected average degree d. The
// seed drives the schedule's randomized choices; the same (g, src, d,
// seed) always yields the same schedule. The schedule length is
// O(ln n / ln d + ln d) w.h.p. on G(n, d/n).
func BuildSchedule(g *Graph, src int32, d float64, seed uint64) (*Schedule, error) {
	sched, _, err := core.BuildCentralizedSchedule(g, src, d, core.DefaultCentralizedConfig(seed))
	return sched, err
}

// NewProtocol returns the paper's distributed randomized protocol
// (Theorem 7) for n nodes and expected degree d. Nodes need only n, d and
// the shared round number; completion takes O(ln n) rounds w.h.p.
func NewProtocol(n int, d float64) Protocol {
	return core.NewDistributedProtocol(n, d)
}

// CentralizedBound returns the Theorem 5/6 bound ln n / ln d + ln d.
func CentralizedBound(n int, d float64) float64 { return core.CentralizedBound(n, d) }

// DistributedBound returns the Theorem 7/8 bound ln n.
func DistributedBound(n int) float64 { return core.DistributedBound(n) }

// MaxRounds returns a generous round budget for distributed broadcasts on
// n nodes (well beyond the Θ(ln n) completion bound).
func MaxRounds(n int) int { return core.MaxRoundsFor(n) }

// Eccentricity returns the BFS eccentricity of src — a true lower bound on
// any broadcast time from src.
func Eccentricity(g *Graph, src int32) int { return graph.Eccentricity(g, src) }

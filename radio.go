// Package repro is a library for radio broadcasting in random graphs,
// reproducing R. Elsässer and L. Gąsieniec, "Radio communication in random
// graphs" (SPAA 2005; JCSS 72(4), 2006).
//
// The radio model: communication proceeds in synchronous rounds; in each
// round a node either transmits or listens; a listening node receives a
// message iff exactly one of its neighbours transmits (two or more
// collide and deliver nothing).
//
// The package exposes, through a small facade over the internal
// implementation:
//
//   - Random-graph generation: Gnp, GnpDegree, Gnm and deterministic
//     topologies (see internal/gen for the full set).
//   - A single options-based simulation entry point: Run, with WithDegree,
//     WithProtocol, WithSchedule, WithMaxRounds, WithSeed/WithRand,
//     WithObserver and WithSources.
//   - The paper's centralized O(ln n/ln d + ln d) broadcast schedule
//     (Theorem 5): BuildSchedule, replayed via Run + WithSchedule.
//   - The paper's distributed randomized O(ln n) protocol (Theorem 7):
//     the Run default, sized by WithDegree; NewProtocol for custom use.
//   - Round-level observability: attach Counters, a JSONLWriter, a
//     FrontierProfile or any custom Observer via WithObserver or
//     Engine.Attach (see observability.go).
//   - The theoretical bounds the measurements are compared against:
//     CentralizedBound, DistributedBound.
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
// declare that through the radio.UniformProtocol capability, and the
// engine then draws the whole transmitter set at once: k ~ Binomial(m, q)
// followed by a k-element partial shuffle of the m eligible nodes, O(k)
// instead of one Bernoulli draw per informed node. The transmitter-set
// distribution is identical, but the stream of rng draws is not, so
// fixed-seed outputs differ between the two modes.
//
// Who uses which stream:
//
//   - Run (with or without WithEngine), BroadcastTime and the gossip
//     runners default to the sampled fast path; opt out per call with
//     WithPerNodeSampling, or per engine with Engine.SetPerNodeSampling.
//   - Run(..., WithPerNodeSampling()) is the historical per-node stream,
//     frozen bit-for-bit across releases (deprecated_stream_test.go pins
//     it with the fingerprints the removed positional wrappers had).
//   - Schedule replay (WithSchedule) and BuildSchedule take no per-round
//     randomness from the engine and are unaffected.
//
// The runnable examples under examples/ exercise these entry points on the
// scenarios from the paper's motivation; cmd/experiments regenerates every
// experiment in EXPERIMENTS.md.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Aliased types so callers can use the library without reaching into
// internal packages.
type (
	// Graph is an immutable simple undirected graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// Schedule is an explicit per-round transmit schedule.
	Schedule = radio.Schedule
	// Result reports a broadcast simulation outcome.
	Result = radio.Result
	// Protocol decides, per informed node and round, whether to transmit.
	Protocol = radio.Protocol
	// ProtocolFunc adapts a function to Protocol.
	ProtocolFunc = radio.ProtocolFunc
	// UniformProtocol is the optional Protocol capability that declares
	// uniform rounds (every eligible node transmits with the same
	// probability q), letting the engine draw the transmitter set in O(k)
	// by binomial cohort sampling instead of per-node Bernoulli calls.
	UniformProtocol = radio.UniformProtocol
	// Cohort selects which informed nodes are eligible to transmit in a
	// uniform round; see AllInformed and InformedBy.
	Cohort = radio.Cohort
	// Rand is the deterministic random source used everywhere.
	Rand = xrand.Rand
	// Engine is the low-level round-by-round radio simulator.
	Engine = radio.Engine
)

// AllInformed is the Cohort of every informed node — the zero Cohort.
var AllInformed = radio.AllInformed

// InformedBy returns the Cohort of nodes informed in rounds <= cutoff
// (the Theorem-7 restricted-pool reading).
func InformedBy(cutoff int32) Cohort { return radio.InformedBy(cutoff) }

// NewRand returns a deterministic random source seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Gnp samples the Gilbert random graph G(n,p) with the block-partitioned
// parallel generator: the pair-index space is split into fixed blocks, each
// drawing from its own derived random stream, so the sample is a
// deterministic function of rng's state alone — bitwise identical for
// every GOMAXPROCS. (The sampled graph for a given seed changed when this
// fast path landed; internal/gen.Gnp keeps the legacy serial stream that
// EXPERIMENTS.md numbers are recorded against.)
func Gnp(n int, p float64, rng *Rand) *Graph { return gen.GnpParallel(n, p, rng, 0) }

// GnpDegree samples G(n, d/n): a random graph with expected average degree
// d (the paper's parametrisation d = pn). Like Gnp it uses the parallel
// generator.
func GnpDegree(n int, d float64, rng *Rand) *Graph {
	return gen.GnpParallel(n, gen.PForDegree(n, d), rng, 0)
}

// ConnectedGnpDegree samples G(n, d/n) conditioned on connectivity (up to
// 100 attempts). ok reports whether a connected sample was found.
func ConnectedGnpDegree(n int, d float64, rng *Rand) (g *Graph, ok bool) {
	g, _, ok = gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	return g, ok
}

// Gnm samples the Erdős–Rényi random graph G(n,m) with exactly m edges.
func Gnm(n, m int, rng *Rand) *Graph { return gen.Gnm(n, m, rng) }

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

// BroadcastTime runs p and returns the completion round, or maxRounds+1
// if the broadcast did not finish (a sentinel that keeps failed runs
// comparable). It uses the sampled fast path when p declares uniform
// rounds, so its randomness stream changed when the fast path landed
// (recorded completion times at fixed seeds shifted; distributions did
// not).
func BroadcastTime(g *Graph, src int32, p Protocol, maxRounds int, rng *Rand) int {
	r, _ := exec.Time(context.Background(), &exec.Request{Graph: g, Sources: []int32{src}, Protocol: p, MaxRounds: maxRounds}, rng)
	return r
}

// CentralizedBound returns the Theorem 5/6 bound ln n / ln d + ln d.
func CentralizedBound(n int, d float64) float64 { return core.CentralizedBound(n, d) }

// DistributedBound returns the Theorem 7/8 bound ln n.
func DistributedBound(n int) float64 { return core.DistributedBound(n) }

// MaxRounds returns a generous round budget for distributed broadcasts on
// n nodes (well beyond the Θ(ln n) completion bound).
func MaxRounds(n int) int { return core.MaxRoundsFor(n) }

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// Eccentricity returns the BFS eccentricity of src — a true lower bound on
// any broadcast time from src.
func Eccentricity(g *Graph, src int32) int { return graph.Eccentricity(g, src) }

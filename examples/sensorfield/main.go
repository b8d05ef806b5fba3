// Sensorfield: emergency dissemination over an ad-hoc wireless sensor
// deployment — the motivating scenario of the paper's introduction
// ("recent technological developments in wireless/mobile communication").
//
// A field of sensors is dropped uniformly at random on a unit square; two
// sensors hear each other within radio range r (a random geometric graph).
// A perimeter sensor detects an event and must alert the whole field under
// radio-collision semantics. We compare the paper's distributed protocol
// (using the empirical mean degree as d) with the Decay baseline, and show
// what deterministic flooding does under collisions.
//
// Run with:
//
//	go run ./examples/sensorfield
package main

import (
	"fmt"
	"math"

	repro "repro"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/protocols"
)

func main() {
	const n = 20000
	// Choose the radio range so the expected degree is ~3 ln n, safely
	// above the geometric connectivity threshold.
	targetDeg := 3 * math.Log(n)
	radius := math.Sqrt(targetDeg / (math.Pi * n))
	rng := repro.NewRand(7)

	fmt.Printf("Deploying %d sensors on the unit square, radio range %.4f ...\n", n, radius)
	g, xs, ys := gen.GeometricPoints(n, radius, rng)
	comp := graph.LargestComponent(g)
	fmt.Printf("Field graph: %v, largest component %d/%d\n", g, len(comp), n)

	// Pick the source as the sensor closest to the corner (0,0): the worst
	// perimeter case.
	src := int32(0)
	best := math.Inf(1)
	for _, v := range comp {
		d2 := xs[v]*xs[v] + ys[v]*ys[v]
		if d2 < best {
			best = d2
			src = v
		}
	}
	// Restrict to the largest component: stragglers outside it are
	// physically unreachable.
	field, orig := g.Subgraph(comp)
	var fsrc int32
	for i, v := range orig {
		if v == src {
			fsrc = int32(i)
		}
	}
	deg := field.Degrees()
	ecc := graph.Eccentricity(field, fsrc)
	fmt.Printf("Source sensor at (%.3f, %.3f); mean degree %.1f; eccentricity %d hops.\n\n",
		xs[src], ys[src], deg.Mean, ecc)

	maxRounds := 40*ecc + 2000
	for _, entry := range []struct {
		name string
		p    repro.Protocol
	}{
		{"paper protocol (Thm 7)", repro.NewProtocol(field.N(), deg.Mean)},
		{"decay (BGI baseline)", protocols.NewDecay(field.N())},
		{"aloha 1/d", protocols.NewAloha(deg.Mean)},
		{"deterministic flooding", protocols.Flood{}},
	} {
		res, _ := repro.Run(field, fsrc, repro.WithProtocol(entry.p), repro.WithMaxRounds(maxRounds), repro.WithRand(rng))
		status := fmt.Sprintf("%d rounds", res.Rounds)
		if !res.Completed {
			status = fmt.Sprintf("STALLED at %d/%d sensors after %d rounds",
				res.Informed, field.N(), res.Rounds)
		}
		fmt.Printf("%-24s %s  (collisions: %d)\n", entry.name, status, res.Stats.Collisions)
	}

	// Position-aware deterministic scheduling: if the base station knows
	// every sensor's coordinates, the grid method gives a collision-free,
	// transmit-once schedule (internal/geo).
	fxs := make([]float64, field.N())
	fys := make([]float64, field.N())
	for i, v := range orig {
		fxs[i] = xs[v]
		fys[i] = ys[v]
	}
	if sched, err := geo.BuildGridSchedule(field, fxs, fys, radius, fsrc); err == nil {
		res, err := repro.Run(field, fsrc, repro.WithSchedule(sched))
		if err == nil && res.Completed {
			fmt.Printf("%-24s %d rounds  (collisions: %d, transmissions: %d — position-aware, deterministic)\n",
				"grid schedule", res.Rounds, res.Stats.Collisions, res.Stats.Transmissions)
		}
	}

	fmt.Printf("\nGeometric fields have diameter Θ(1/r) = Θ(sqrt(n/ln n)) — the %d-hop\n", ecc)
	fmt.Println("eccentricity dominates every protocol; the paper's G(n,p) model has")
	fmt.Println("logarithmic diameter instead, which is where its O(ln n) bound lives.")
	fmt.Println("With known positions, the grid schedule trades rounds for determinism")
	fmt.Println("and minimal energy (every sensor transmits at most once).")
}

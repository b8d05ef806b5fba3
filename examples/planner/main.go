// Planner: dissect the centralized broadcast schedule of Theorem 5.
//
// With full topology knowledge the scheduler plays five phases (tree
// parity ping-pong, Θ(n/d) kick-off, disjoint 1/d-selective rounds,
// independent-cover finish, backward sweep). This example builds the
// schedule on one graph, prints the phase structure and a per-round
// trace, and verifies the independent-cover property of the final rounds
// explicitly.
//
// Run with:
//
//	go run ./examples/planner
package main

import (
	"fmt"
	"log"
	"math"

	repro "repro"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/structure"
)

func main() {
	const n = 20000
	d := 2 * math.Log(n)
	rng := repro.NewRand(11)
	g, ok := repro.ConnectedGnpDegree(n, d, rng)
	if !ok {
		log.Fatal("no connected sample")
	}

	sched, trace, err := core.BuildCentralizedSchedule(g, 0, d, core.DefaultCentralizedConfig(11))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Graph %v, d=%.1f\n", g, d)
	fmt.Printf("Schedule: %d rounds — %s\n", sched.Len(), trace)
	fmt.Printf("Theorem 5 bound: ln n/ln d + ln d = %.1f (ratio %.2f)\n\n",
		repro.CentralizedBound(n, d), float64(sched.Len())/repro.CentralizedBound(n, d))

	// Replay round by round, annotating phases.
	phaseOf := func(r int) string {
		switch {
		case r <= trace.TreeRounds:
			return "tree"
		case r <= trace.TreeRounds+trace.KickoffRounds:
			return "kick"
		case r <= trace.TreeRounds+trace.KickoffRounds+trace.SelectiveRounds:
			return "selective"
		case r <= trace.TreeRounds+trace.KickoffRounds+trace.SelectiveRounds+trace.CoverRounds:
			return "cover"
		default:
			return "backward"
		}
	}
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	fmt.Println("round  phase      transmitters  newly-informed  total-informed")
	for r, set := range sched.Sets {
		if e.Done() {
			break
		}
		// For the cover rounds, verify the independent-cover property
		// against the CURRENT uninformed set before executing.
		var coverCheck string
		if phaseOf(r+1) == "cover" || phaseOf(r+1) == "backward" {
			y := e.AppendUninformed(nil)
			c := structure.EvaluateCover(g, set, y)
			coverCheck = fmt.Sprintf("  [covers %d/%d uninformed, %d collide]",
				len(c.Covered), len(y), len(c.Collided))
		}
		newly, err := e.Round(set)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %-9s  %12d  %14d  %14d%s\n",
			r+1, phaseOf(r+1), len(set), len(newly), e.InformedCount(), coverCheck)
	}
	if !e.Done() {
		log.Fatalf("schedule incomplete: %d/%d", e.InformedCount(), n)
	}
	fmt.Printf("\nBroadcast complete in %d rounds; %d collisions along the way.\n",
		e.RoundCount(), e.Counters().Collisions)
}

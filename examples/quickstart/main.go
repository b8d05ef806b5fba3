// Quickstart: sample a random radio network, broadcast with the paper's
// distributed protocol, then with the centralized schedule, and compare
// both against the theoretical bounds.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	repro "repro"
)

func main() {
	const n = 50000
	d := 2 * math.Log(n) // the paper's sparse regime: d = Θ(ln n)
	rng := repro.NewRand(42)

	fmt.Printf("Sampling a connected G(n=%d, p=d/n) with expected degree d=%.1f ...\n", n, d)
	g, ok := repro.ConnectedGnpDegree(n, d, rng)
	if !ok {
		log.Fatal("could not sample a connected graph; increase d")
	}
	fmt.Printf("Got %v; source eccentricity %d.\n\n", g, repro.Eccentricity(g, 0))

	// Fully distributed randomized broadcasting (Theorem 7): every node
	// knows only n and d.
	res, err := repro.Run(g, 0, repro.WithDegree(d), repro.WithRand(rng))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Distributed protocol : %d rounds (completed=%v)\n", res.Rounds, res.Completed)
	fmt.Printf("  Theorem 7 bound    : O(ln n) = O(%.1f)  -> ratio %.2f\n",
		repro.DistributedBound(n), float64(res.Rounds)/repro.DistributedBound(n))
	fmt.Printf("  collisions suffered: %d, clean deliveries: %d\n\n",
		res.Stats.Collisions, res.Stats.Successes)

	// Centralized scheduling with full topology knowledge (Theorem 5).
	sched, err := repro.BuildSchedule(g, 0, d, 7)
	if err != nil {
		log.Fatal(err)
	}
	cres, err := repro.Run(g, 0, repro.WithSchedule(sched))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Centralized schedule : %d rounds (completed=%v)\n", cres.Rounds, cres.Completed)
	fmt.Printf("  Theorem 5 bound    : O(ln n/ln d + ln d) = O(%.1f)  -> ratio %.2f\n",
		repro.CentralizedBound(n, d), float64(cres.Rounds)/repro.CentralizedBound(n, d))
	fmt.Printf("  eccentricity (hard lower bound): %d rounds\n", repro.Eccentricity(g, 0))
}

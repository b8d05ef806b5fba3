// Primitives: a tour of the communication primitives beyond single-message
// broadcast — k-message broadcast (pipelining), all-to-all gossip, leader
// election with and without collision detection, and crash-fault recovery.
// The broadcasts go through the public API; the other primitives are not
// part of it, so the example calls their internal packages directly.
//
// Run with:
//
//	go run ./examples/primitives
package main

import (
	"fmt"
	"log"
	"math"

	repro "repro"
	"repro/internal/election"
	"repro/internal/faults"
	"repro/internal/gossip"
	"repro/internal/pipeline"
)

// kbProtocol is the k-broadcast transmit rule: everyone floods for three
// rounds, then each informed node transmits with probability 1/d.
type kbProtocol struct{ d float64 }

func (p kbProtocol) Transmit(v int32, round int, informedAt int32, rng *repro.Rand) bool {
	if round <= 3 {
		return true
	}
	return rng.Bernoulli(1 / math.Max(p.d, 2))
}

func main() {
	const n = 2000
	d := 2 * math.Log(n)
	rng := repro.NewRand(21)
	g, ok := repro.ConnectedGnpDegree(n, d, rng)
	if !ok {
		log.Fatal("no connected sample")
	}
	fmt.Printf("Network: %v, d=%.1f, ln n = %.1f\n\n", g, d, math.Log(n))

	// 1. Single-message broadcast (the paper's Theorem 7).
	res, _ := repro.Run(g, 0, repro.WithDegree(d), repro.WithRand(rng))
	fmt.Printf("1. broadcast           : %4d rounds (1 message to all nodes)\n", res.Rounds)

	// 2. k-message broadcast: one message per transmission, rarest-first.
	const k = 8
	kres := pipeline.Run(g, 0, k, kbProtocol{d}, pipeline.RarestFirst, 500_000, rng)
	fmt.Printf("2. %d-message broadcast : %4d rounds (%.1fx the single message — pipelined)\n",
		k, kres.Rounds, float64(kres.Rounds)/float64(res.Rounds))

	// 3. Gossip: everyone starts with a rumor, everyone must learn all.
	gres := gossip.Run(g, gossip.NewPhased(g.N(), d), 500_000, rng)
	fmt.Printf("3. gossip (all-to-all) : %4d rounds (n rumors everywhere)\n", gres.Rounds)

	// 4. Leader election on a single shared channel.
	noCD := election.Sweep(n, 1<<20, 1<<20, rng)
	cd := election.Willard(n, 1<<20, 1<<20, rng)
	fmt.Printf("4. leader election     : %4d rounds without CD, %d with CD (knowing only n <= 2^20)\n",
		noCD, cd)

	// 5. Crash faults: a third of the network dies; broadcast to the rest.
	sc := faults.Crash(g, 0, 0.33, rng)
	fres, _ := repro.Run(sc.Sub, sc.SrcNew, repro.WithDegree(d*0.67), repro.WithRand(rng))
	fmt.Printf("5. broadcast, 33%% dead : %4d rounds (%d/%d reachable survivors informed)\n",
		fres.Rounds, fres.Informed, sc.ReachableFromSource())

	fmt.Println("\nAll five primitives run on the same collision-exact radio model; the")
	fmt.Println("paper's 1/d-selective idea powers every one of them.")
}

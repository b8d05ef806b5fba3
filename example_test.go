package repro_test

// Runnable godoc examples for the public API. The outputs are fixed by
// the deterministic seeds, so `go test` verifies them.

import (
	"fmt"

	repro "repro"
)

// ExampleRun runs the paper's distributed protocol on a small random
// radio network.
func ExampleRun() {
	rng := repro.NewRand(7)
	g, ok := repro.ConnectedGnpDegree(2000, 16, rng)
	if !ok {
		fmt.Println("no connected sample")
		return
	}
	res, err := repro.Run(g, 0, repro.WithDegree(16), repro.WithRand(rng))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("completed=%v informed=%d/%d\n", res.Completed, res.Informed, g.N())
	// Output: completed=true informed=2000/2000
}

// ExampleBuildSchedule constructs and replays the Theorem 5 centralized
// schedule.
func ExampleBuildSchedule() {
	rng := repro.NewRand(11)
	g, ok := repro.ConnectedGnpDegree(2000, 16, rng)
	if !ok {
		fmt.Println("no connected sample")
		return
	}
	sched, err := repro.BuildSchedule(g, 0, 16, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := repro.Run(g, 0, repro.WithSchedule(sched))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("completed=%v within-bound=%v\n",
		res.Completed, float64(res.Rounds) < 15*repro.CentralizedBound(g.N(), 16))
	// Output: completed=true within-bound=true
}

// ExampleNewEngine drives the collision-exact simulator round by round on
// a hand-built gadget: two informed neighbours of an uninformed node
// collide; a lone transmitter gets through.
func ExampleNewEngine() {
	b := repro.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()

	e := repro.NewEngine(g, 0)
	newly, _ := e.Round([]int32{0}) // source informs 1 and 2
	fmt.Println("round 1 informs:", len(newly))
	newly, _ = e.Round([]int32{1, 2}) // 1 and 2 collide at 3
	fmt.Println("round 2 informs:", len(newly))
	newly, _ = e.Round([]int32{1}) // 1 alone reaches 3
	fmt.Println("round 3 informs:", len(newly))
	// Output:
	// round 1 informs: 2
	// round 2 informs: 0
	// round 3 informs: 1
}

// ExampleGossip disseminates every node's private rumor to every other
// node under radio collisions.
func ExampleGossip() {
	rng := repro.NewRand(3)
	g, ok := repro.ConnectedGnpDegree(300, 14, rng)
	if !ok {
		fmt.Println("no connected sample")
		return
	}
	res := repro.Gossip(g, 14, 100000, rng)
	fmt.Printf("completed=%v everyone-knows-everything=%v\n",
		res.Completed, res.KnownTotal == int64(g.N())*int64(g.N()))
	// Output: completed=true everyone-knows-everything=true
}

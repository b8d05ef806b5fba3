package core

import (
	"context"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// replay replays s from src on a fresh strict engine through the
// execution layer.
func replay(g *graph.Graph, src int32, s *radio.Schedule) (radio.Result, error) {
	return exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{src}, Schedule: s}, nil)
}

// runProtocol runs p once from src on a fresh engine through the
// execution layer.
func runProtocol(g *graph.Graph, src int32, p radio.Protocol, maxRounds int, rng *xrand.Rand) radio.Result {
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{src}, Protocol: p, MaxRounds: maxRounds}, rng)
	return res
}

// broadcastTime runs p once from node 0 on a fresh engine through the
// execution layer and returns the completion round (maxRounds+1 if
// incomplete).
func broadcastTime(g *graph.Graph, p radio.Protocol, maxRounds int, rng *xrand.Rand) int {
	r, _ := exec.Time(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds}, rng)
	return r
}

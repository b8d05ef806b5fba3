package exec

import (
	"repro/internal/graph"
	"repro/internal/lanes"
)

// Test views of the executor's pool state.

// SetLaneBudget replaces the executor's idle lane-engine byte budget.
func (x *Executor) SetLaneBudget(b int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.laneBudget = b
}

// LaneBytes returns the footprint sum of the executor's idle lane
// engines.
func (x *Executor) LaneBytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.laneBytes
}

// IdleLanes returns g's idle lane engines and whether g has a pool entry
// at all.
func (x *Executor) IdleLanes(g *graph.Graph) ([]*lanes.Engine, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	el, ok := x.entries[g]
	if !ok {
		return nil, false
	}
	return append([]*lanes.Engine(nil), el.Value.(*poolEntry).idleLanes...), true
}

// Classify and ClassifyBatch expose the classifiers to the external
// test package.
var (
	Classify      = classify
	ClassifyBatch = classifyBatch
)

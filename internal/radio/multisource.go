package radio

// Multi-source broadcasting: the same message starts at k sources (e.g. a
// replicated alarm). Experiment E18 measures how completion time falls
// as sources are added.

import (
	"fmt"

	"repro/internal/graph"
)

// NewEngineMulti returns an engine in which every listed source knows the
// message at round 0. Duplicate sources are tolerated.
func NewEngineMulti(g *graph.Graph, sources []int32, policy TransmitterPolicy) *Engine {
	if len(sources) == 0 {
		panic("radio: NewEngineMulti needs at least one source")
	}
	e := NewEngine(g, sources[0], policy)
	for _, s := range sources[1:] {
		if s < 0 || int(s) >= g.N() {
			panic(fmt.Sprintf("radio: source %d out of range", s))
		}
		if !e.informed[s] {
			e.informed[s] = true
			e.informedAt[s] = 0
			e.numInformed++
			// Remember the extra source so Reset restores the full initial
			// informed set rather than silently collapsing to {sources[0]}.
			e.extraSources = append(e.extraSources, s)
		}
	}
	return e
}

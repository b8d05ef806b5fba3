// Package exp defines the reproduction experiments E1–E23: E1–E12 one per
// claim of the paper (the paper itself has no tables or figures — it is a
// theory extended abstract — so each asymptotic claim is replaced by a
// finite-size scaling experiment), E13–E23 its extensions and
// instrumented checks; see DESIGN.md §3 for the index.
//
// Every experiment is a pure function of its Config (scale + seed) and
// returns one or more tables; cmd/experiments prints them and
// EXPERIMENTS.md records the medium-scale outputs next to the paper's
// claims.
package exp

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// Scale selects the size/effort of an experiment run.
type Scale int

const (
	// Small finishes in well under a second per experiment — used by the
	// test suite.
	Small Scale = iota
	// Medium is the scale recorded in EXPERIMENTS.md (seconds per
	// experiment).
	Medium
	// Full is the largest practical single-machine scale (minutes).
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Config parameterises an experiment run.
type Config struct {
	Scale Scale
	Seed  uint64
	// Trials overrides the scale's default trial count when positive.
	Trials int
}

// trials returns the effective trial count given a scale default.
func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

// Experiment couples an identifier with a runnable reproduction.
type Experiment struct {
	ID    string // "E1" ... "E23"
	Title string
	Claim string // the paper statement being reproduced
	Run   func(Config) []*table.Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment ordered by numeric ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return numericID(out[i].ID) < numericID(out[j].ID)
	})
	return out
}

func numericID(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

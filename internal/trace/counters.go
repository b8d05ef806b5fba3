package trace

import "fmt"

// Counters is an Observer that accumulates aggregate metrics across one or
// more runs. The zero value is ready to use.
//
// The radio engine uses a Counters as its own accounting (Engine.Counters
// and Result.Stats read from it), so an attached Counters observer is
// guaranteed to agree with the engine's counts: both are fed the same
// RoundRecord through the same Apply method. The engine's copy sees no
// BeginRun or EndRun, so its Runs and Completed stay zero.
type Counters struct {
	// Runs is the number of BeginRun notifications seen.
	Runs int
	// Completed is the number of runs that ended with every node informed.
	Completed int
	// Rounds is the total number of rounds observed.
	Rounds int
	// Transmissions is the total number of node-transmissions.
	Transmissions int
	// Successes is the total number of clean receptions by listening nodes
	// (including already-informed listeners).
	Successes int
	// Collisions is the total number of listener-rounds lost to two or
	// more transmitting neighbours.
	Collisions int
	// Silent is the total number of listener-rounds spent hearing nothing.
	Silent int
	// NewlyInformed is the total number of first-time message deliveries.
	NewlyInformed int
	// Informed is the cumulative informed count after the most recently
	// observed round (the final frontier size of the last run).
	Informed int
}

// Apply folds one round record into the counters. It is the single
// accounting step shared by the observer path and the engine's own
// counters, so the two cannot drift.
func (c *Counters) Apply(r RoundRecord) {
	c.Rounds++
	c.Transmissions += r.Transmitters
	c.Successes += r.Successes
	c.Collisions += r.Collisions
	c.Silent += r.Silent
	c.NewlyInformed += r.NewlyInformed
	c.Informed = r.Informed
}

// BeginRun implements Observer.
func (c *Counters) BeginRun(RunInfo) { c.Runs++ }

// Round implements Observer.
func (c *Counters) Round(r RoundRecord) { c.Apply(r) }

// EndRun implements Observer.
func (c *Counters) EndRun(s Summary) {
	if s.Completed {
		c.Completed++
	}
}

// Add merges another set of counters into c. Merging per-worker counters
// from a concurrent sweep yields the same totals as a serial run, since
// every field is a sum (Informed, a last-value gauge, is kept as the max
// so the merge is order-independent).
func (c *Counters) Add(o Counters) {
	c.Runs += o.Runs
	c.Completed += o.Completed
	c.Rounds += o.Rounds
	c.Transmissions += o.Transmissions
	c.Successes += o.Successes
	c.Collisions += o.Collisions
	c.Silent += o.Silent
	c.NewlyInformed += o.NewlyInformed
	if o.Informed > c.Informed {
		c.Informed = o.Informed
	}
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }

// String summarises the counters for log output.
func (c Counters) String() string {
	return fmt.Sprintf("runs=%d completed=%d rounds=%d tx=%d ok=%d col=%d silent=%d new=%d",
		c.Runs, c.Completed, c.Rounds, c.Transmissions, c.Successes, c.Collisions, c.Silent, c.NewlyInformed)
}

//go:build race

package campaign

// Under the race detector, sync.Pool deliberately drops a fraction of
// Puts, so the scratch pool's steady-state allocation is not meaningful
// there. The tests that assert it skip themselves when this is true; the
// plain-build run still enforces them.
const raceEnabled = true

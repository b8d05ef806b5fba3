package lanes

import "repro/internal/xrand"

// BuildMode and its values, for tests that force one transmitter build.
type BuildMode = buildMode

const (
	BuildAuto   = buildAuto
	BuildSparse = buildSparse
	BuildDense  = buildDense
)

// ForceBuild makes every later round of e build its transmitters with
// mode m; BuildAuto restores the per-round choice.
func (e *Engine) ForceBuild(m BuildMode) { e.build = m }

// PickChunk is nextPicks' chunk size.
const PickChunk = pickChunk

// ChunkedWalk returns every vertex one lane's walk picks from el at skip
// rate lam, drawing from rng chunk by chunk as markPicks and orPicks do.
func ChunkedWalk(el []int32, rng *xrand.Rand, lam float64) []int32 {
	var e Engine
	var out []int32
	if len(el) == 0 {
		return out
	}
	for j := rng.GeometricExp(lam); j < len(el); {
		var pos []int32
		pos, j = e.nextPicks(el, rng, lam, j)
		for _, p := range pos {
			out = append(out, el[p])
		}
	}
	return out
}

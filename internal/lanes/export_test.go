package lanes

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

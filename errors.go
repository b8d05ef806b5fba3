package repro

// Error taxonomy of the facade. Every error returned by Run / RunContext /
// BuildSchedule wraps exactly one of the exported sentinels below, so
// callers — in particular the HTTP serving layer (internal/serve), which
// maps them onto status codes — classify failures with errors.Is instead
// of matching message text:
//
//	res, err := repro.RunContext(ctx, g, src, repro.WithDegree(d))
//	switch {
//	case errors.Is(err, repro.ErrCanceled):           // partial res is valid
//	case errors.Is(err, repro.ErrConflictingOptions): // caller bug: bad options
//	case errors.Is(err, repro.ErrNoSuchSource):       // source outside [0, n)
//	case errors.Is(err, repro.ErrScheduleMismatch):   // schedule/instance mismatch
//	}
//
// Cancellation errors additionally wrap the context's cause, so
// errors.Is(err, context.Canceled) and errors.Is(err, context.DeadlineExceeded)
// keep working alongside ErrCanceled.

import (
	"errors"

	"repro/internal/radio"
)

// ErrConflictingOptions marks a Run/RunContext/RunBatch call whose options
// are mutually exclusive or invalid: WithProtocol+WithDegree, WithSchedule
// combined with protocol options or WithMaxRounds, WithRand+WithSeed, a
// negative round budget, WithEngine with an engine built for another
// graph, or an option RunBatch does not take (WithSchedule, WithObserver,
// WithRand, WithEngine).
var ErrConflictingOptions = errors.New("repro: conflicting options")

// ErrNoSuchSource marks a broadcast source (src or a WithSources entry)
// outside the graph's vertex range [0, n).
var ErrNoSuchSource = radio.ErrNoSuchSource

// ErrScheduleMismatch marks a schedule that does not fit the graph or the
// radio model: replaying a schedule with out-of-range or uninformed
// transmitters (ErrUninformedTransmitter wraps it), or BuildSchedule on an
// instance that admits no valid schedule (empty graph, vertices
// unreachable from the source).
var ErrScheduleMismatch = radio.ErrScheduleMismatch

// ErrCanceled marks a run stopped cooperatively by its context. The
// partial Result returned alongside it is valid: it reflects exactly the
// rounds executed before cancellation.
var ErrCanceled = radio.ErrCanceled

package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// Options configures one Run invocation. The zero value runs in-memory
// (no checkpoint) on GOMAXPROCS workers over the whole grid.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). The final report
	// does not depend on it.
	Workers int
	// Dir is the checkpoint directory; "" disables checkpointing.
	Dir string
	// Resume loads the samples already recorded in Dir and runs only the
	// missing trials. Requires Dir.
	Resume bool
	// HaltAfter stops dispatching once that many new samples have been
	// dispatched this run (0 = run to completion) — the deterministic
	// "kill" half of the kill-and-resume smoke test. In-flight trials
	// still finish and are recorded, so slightly more than HaltAfter
	// samples may land; with lane blocks the overshoot rounds up to the
	// block boundary. The checkpoint is flushed before Run returns.
	HaltAfter int
	// FlushEvery is the checkpoint flush cadence in samples (0 = 64).
	FlushEvery int
	// Progress, when non-nil, receives human-readable progress lines
	// (point completions, stops, the final summary).
	Progress io.Writer
	// Interrupt, when non-nil, halts the run gracefully when it becomes
	// readable (closed): in-flight trials finish, the checkpoint is
	// flushed, and Run returns the partial report. Wire ^C to it.
	Interrupt <-chan struct{}
	// Context, when non-nil, cancels the run cooperatively: dispatching
	// stops (like Interrupt), and in-flight trial blocks are canceled
	// mid-run through the context every Runner.RunTrials call receives
	// instead of being run to completion. Canceled trials are DISCARDED,
	// not recorded — a cancellation-timing-dependent sample would break
	// the byte-identical resume guarantee — so a resumed run simply
	// re-runs them. The checkpoint is still flushed and the partial
	// report returned.
	Context context.Context
	// PointLo/PointHi restrict this run to grid points [PointLo, PointHi)
	// for sharding a campaign across machines; (0, 0) means the whole
	// grid. Shard checkpoints recombine with Merge.
	PointLo, PointHi int
	// Sink, when non-nil, receives every sample completed by THIS run
	// (not samples loaded from a resumed checkpoint), called from the
	// collector goroutine in completion order — scheduling-dependent, so
	// callers needing determinism must sort by (Point, Trial) themselves.
	// This is how a cluster worker extracts a shard's samples without a
	// checkpoint directory.
	Sink func(*Sample)
	// Lanes picks the trial engine for lane-capable points (FixedGraph
	// distributed/decay/aloha/collision-rate): 0 means auto
	// (exec.Width-wide blocks on the bit-parallel engine), >= 2
	// dispatches blocks of that many trials, and 1 (or negative) forces
	// the scalar per-trial engine.
	// Lane purity makes reports byte-identical across every setting >= 2
	// and 0; scalar runs draw a different (distributionally identical)
	// stream, so checkpoints record the engine and refuse to resume a
	// lane-sensitive spec under the other one.
	Lanes int
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) flushEvery() int {
	if o.FlushEvery > 0 {
		return o.FlushEvery
	}
	return 64
}

// laneWidth resolves an Options.Lanes setting to the lane block size:
// exec.Width for auto (0) or anything wider, 1 (scalar) below 1.
func laneWidth(lanes int) int {
	switch {
	case lanes == 0 || lanes > exec.Width:
		return exec.Width
	case lanes < 1:
		return 1
	default:
		return lanes
	}
}

// EngineTag returns the Manifest.Engine tag a run of spec with the given
// Options.Lanes setting records: "lanes" when the bit-parallel lane
// engine will produce samples for at least one point of the spec, ""
// when everything runs scalar. Lane-insensitive specs always tag "" —
// the engine choice cannot change their values. A cluster coordinator
// hands this tag to its workers (and stamps it on its own checkpoint) so
// every shard of a distributed campaign draws the same randomness stream.
func EngineTag(spec *Spec, lanes int) string {
	if laneWidth(lanes) > 1 && spec.laneSensitive() {
		return EngineLanes
	}
	return EngineScalar
}

// workItem is one dispatch: a block of trials of one point. Scalar
// points carry a single trial; lane-dispatched points carry up to
// Options.Lanes consecutive missing trials with their seeds.
type workItem struct {
	point  int
	trials []int
	seeds  []uint64
}

// Run executes a campaign. The returned report is byte-identical (via
// Report.JSON or Report.Text) for a given spec regardless of worker
// count, and an interrupted run resumed from its checkpoint converges to
// the identical report an uninterrupted run produces; see the invariance
// tests.
func Run(spec *Spec, opt Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lo, hi := opt.PointLo, opt.PointHi
	if lo == 0 && hi == 0 {
		hi = len(spec.Points)
	}
	if lo < 0 || hi > len(spec.Points) || lo >= hi {
		return nil, fmt.Errorf("campaign: point range [%d, %d) outside grid of %d points", lo, hi, len(spec.Points))
	}
	if opt.Resume && opt.Dir == "" {
		return nil, fmt.Errorf("campaign: resume requires a checkpoint directory")
	}

	// Per-trial seeds, derived once, identically on every run of this
	// spec: point i's trials use sweep.Seeds over the point's derived
	// base seed.
	parent := xrand.New(spec.Seed)
	trialSeeds := make([][]uint64, len(spec.Points))
	for p := range spec.Points {
		trialSeeds[p] = sweep.Seeds(spec.Trials, parent.DeriveSeed(uint64(p)+1))
	}
	pointSeeds := make([]uint64, len(spec.Points))
	for p := range spec.Points {
		pointSeeds[p] = parent.DeriveSeed(uint64(p) + 1)
	}

	engine := EngineTag(spec, opt.Lanes)
	samples := make(map[key]*Sample)
	var ck *Checkpoint
	var err error
	if opt.Dir != "" {
		if opt.Resume {
			ck, samples, err = OpenCheckpoint(opt.Dir, spec, engine)
		} else {
			ck, err = CreateCheckpoint(opt.Dir, spec, engine)
		}
		if err != nil {
			return nil, err
		}
		defer ck.Close()
	}

	// Seed the aggregators with everything already recorded, in order;
	// adaptive stops fire now exactly where they fired before the
	// interruption.
	aggs := make([]*pointAgg, len(spec.Points))
	stopped := make([]atomic.Bool, len(spec.Points))
	for p := range spec.Points {
		aggs[p] = newPointAgg(spec)
		for t := 0; t < spec.Trials; t++ {
			if s, ok := samples[key{p, t}]; ok {
				aggs[p].feed(s)
			}
		}
		if aggs[p].stopped {
			stopped[p].Store(true)
		}
	}

	// The work list interleaves blocks across points (block 0 of every
	// point, then block 1, ...) so adaptive stopping sees every point's
	// early trials as soon as possible. Scalar points emit one-trial
	// blocks, reproducing the classic trial-major interleave; lane-capable
	// points chunk their missing trials into Options.Lanes-sized blocks.
	// Blocking only changes dispatch granularity: every sample remains a
	// pure function of its own seed, and the aggregator consumes samples
	// in trial order, so the report is independent of the block size.
	// The engine is a property of the point, not of the block: every
	// block of a lane-dispatched point — a trailing one-trial block
	// included — runs on its runner's lane engine, so a trial's
	// randomness stream never depends on where block boundaries fall.
	lanesN := laneWidth(opt.Lanes)
	lanePoint := func(p int) bool { return lanesN > 1 && batchablePoint(spec.Points[p]) }
	perPoint := make([][]workItem, 0, hi-lo)
	maxBlocks := 0
	for p := lo; p < hi; p++ {
		var missing []int
		for t := 0; t < spec.Trials; t++ {
			if _, done := samples[key{p, t}]; !done {
				missing = append(missing, t)
			}
		}
		size := 1
		if lanePoint(p) {
			size = lanesN
		}
		var blocks []workItem
		for len(missing) > 0 {
			k := min(size, len(missing))
			it := workItem{point: p, trials: missing[:k:k]}
			for _, t := range it.trials {
				it.seeds = append(it.seeds, trialSeeds[p][t])
			}
			blocks = append(blocks, it)
			missing = missing[k:]
		}
		perPoint = append(perPoint, blocks)
		maxBlocks = max(maxBlocks, len(blocks))
	}
	var items []workItem
	for b := 0; b < maxBlocks; b++ {
		for _, blocks := range perPoint {
			if b < len(blocks) {
				items = append(items, blocks[b])
			}
		}
	}

	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	halt := make(chan struct{})
	var haltOnce sync.Once
	haltNow := func() { haltOnce.Do(func() { close(halt) }) }
	if opt.Interrupt != nil || ctx.Done() != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-opt.Interrupt:
				haltNow()
			case <-ctx.Done():
				haltNow()
			case <-done:
			}
		}()
	}

	build := func(p int) (Runner, error) { return newRunner(spec.Points[p], pointSeeds[p], lanePoint(p)) }
	workCh := make(chan workItem)
	resCh := make(chan *Sample, opt.workers())
	go func() { // dispatcher
		defer close(workCh)
		dispatched := 0
		for _, it := range items {
			if stopped[it.point].Load() {
				continue
			}
			select {
			case <-halt:
				return
			case workCh <- it:
			}
			dispatched += len(it.trials)
			if opt.HaltAfter > 0 && dispatched >= opt.HaltAfter {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(ctx, spec, build, workCh, resCh)
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Collector: the only goroutine touching samples, aggs and the
	// checkpoint once the pool is running.
	newSamples := 0
	sinceFlush := 0
	var flushErr error
	for s := range resCh {
		samples[key{s.Point, s.Trial}] = s
		if ck != nil {
			ck.Append(s)
		}
		if opt.Sink != nil {
			opt.Sink(s)
		}
		newSamples++
		sinceFlush++
		agg := aggs[s.Point]
		wasDone := agg.done()
		agg.feed(s)
		if agg.stopped {
			stopped[s.Point].Store(true)
		}
		if !wasDone && agg.done() && opt.Progress != nil {
			p := &spec.Points[s.Point]
			how := "budget exhausted"
			if agg.stopped {
				how = fmt.Sprintf("CI target hit, %d trials saved", agg.budget-agg.consumed)
			}
			mean := agg.welford.Mean()
			fmt.Fprintf(opt.Progress, "campaign: point %s done: %d/%d trials, mean %.4g (%s)\n",
				p.ID, agg.consumed, agg.budget, mean, how)
		}
		if ck != nil && sinceFlush >= opt.flushEvery() && flushErr == nil {
			if flushErr = ck.Flush(false); flushErr != nil {
				haltNow() // stop dispatching, drain the pool, then fail
			}
			sinceFlush = 0
		}
		if opt.HaltAfter > 0 && newSamples >= opt.HaltAfter {
			haltNow()
		}
	}
	if flushErr != nil {
		return nil, flushErr
	}

	report := BuildReport(spec, samples)
	if ck != nil {
		report.SkippedLines = ck.SkippedLines()
	}
	if ck != nil {
		if err := ck.Flush(report.Complete); err != nil {
			return nil, err
		}
	}
	if opt.Progress != nil {
		state := "complete"
		if !report.Complete {
			state = "incomplete (halted or sliced; resume or merge to finish)"
		}
		fmt.Fprintf(opt.Progress, "campaign: %s: %d samples this run, %d total, %s\n",
			spec.Name, newSamples, len(samples), state)
	}
	return report, nil
}

// runWorker executes work items until the channel closes. Each worker
// caches one Runner per point (the sweep.RunWith engine-reuse pattern)
// and survives panicking trials: a panic is captured, the cached runner —
// whose state the panic may have corrupted — is discarded, the trial is
// retried up to spec.MaxRetries times, and a still-failing trial is
// recorded as a failed sample rather than killing the pool.
//
// A block canceled via ctx (see Options.Context) is dropped entirely: no
// sample is emitted, no retry attempted — its values would depend on
// when cancellation landed, which must never reach a checkpoint. build
// constructs a point's runner.
func runWorker(ctx context.Context, spec *Spec, build func(point int) (Runner, error), workCh <-chan workItem, resCh chan<- *Sample) {
	runners := make(map[int]Runner)
	for it := range workCh {
		var (
			values   []float64
			oks      []bool
			retries  int
			failErr  error
			canceled bool
		)
		for attempt := 0; ; attempt++ {
			var err error
			values, oks, err = attemptItem(ctx, build, runners, it)
			if errors.Is(err, radio.ErrCanceled) {
				canceled = true
				break
			}
			if err == nil {
				for _, v := range values {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						err = fmt.Errorf("trial returned non-finite value %v", v)
						break
					}
				}
			}
			if err == nil {
				retries = attempt
				break
			}
			// The panic may have left the cached runner (engine, scratch
			// buffers) in an inconsistent state; rebuild it. Runners are
			// deterministic functions of (point, pointSeed), so a rebuilt
			// runner behaves identically to a fresh one. A block retries
			// (and, once out of retries, fails) as a unit: its trials ran
			// as one engine call, so no per-trial result can be trusted.
			delete(runners, it.point)
			if attempt >= spec.MaxRetries {
				failErr = err
				retries = attempt
				break
			}
		}
		if canceled {
			// Canceled blocks are dropped whole: recording any of their
			// trials would make checkpoints depend on cancellation timing.
			continue
		}
		for i, t := range it.trials {
			s := &Sample{
				Point:   it.point,
				PointID: spec.Points[it.point].ID,
				Trial:   t,
				Seed:    it.seeds[i],
				Retries: retries,
			}
			if failErr != nil {
				s.Failed = true
				s.Err = failErr.Error()
			} else {
				s.Value, s.OK = values[i], oks[i]
			}
			resCh <- s
		}
	}
}

// attemptItem runs one attempt of one work item (a single trial or a
// lane block) as one RunTrials call, converting panics (in runner
// construction or the trials themselves) into errors. A cancellation
// error is returned as-is (wrapping radio.ErrCanceled) for the caller to
// drop.
func attemptItem(ctx context.Context, build func(point int) (Runner, error), runners map[int]Runner, it workItem) (values []float64, oks []bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	runner, cached := runners[it.point]
	if !cached {
		runner, err = build(it.point)
		if err != nil {
			return nil, nil, err
		}
		runners[it.point] = runner
	}
	values = make([]float64, len(it.seeds))
	oks = make([]bool, len(it.seeds))
	if err := runner.RunTrials(ctx, it.seeds, values, oks); err != nil {
		return nil, nil, err
	}
	return values, oks, nil
}

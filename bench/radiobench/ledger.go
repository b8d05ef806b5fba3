package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"

	"repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lanes"
	"repro/internal/radio"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ledger measures every layer from outside, each inside a span around a
// call into its public functions, and returns the per-layer metrics. A
// marginal pairs two calls on identical inputs and reports the median of
// their differences. The inputs derive from the run's seed, not from the
// workload, so every traced run reports the same layers.
type ledger struct {
	e    *env
	tr   *tracer
	ctx  context.Context
	m    map[string]float64
	errs []error
}

func runLedger(e *env, tr *tracer) (map[string]float64, []error) {
	l := &ledger{e: e, tr: tr, ctx: context.Background(), m: map[string]float64{}}
	tr.do(0, "ledger", func(id int64) {
		g := l.genGraph(id)
		if g == nil {
			return
		}
		l.radioCore(id, g)
		l.laneEngine(id, g)
		l.marginals(id)
		l.facade(id)
		l.campaign(id)
		l.serve(id)
		l.cluster(id)
	})
	return l.m, l.errs
}

func (l *ledger) fail(format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("ledger: "+format, args...))
}

// inTurn runs calls in an order rotated by r, so that no call always
// pays for the garbage the one before it left.
func inTurn(r int, calls ...func()) {
	for i := range calls {
		calls[(r+i)%len(calls)]()
	}
}

// pairedMedian is the median of a[i] - b[i].
func pairedMedian(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// genGraph measures generation and CSR construction on the fixed
// workload and returns the last sample.
func (l *ledger) genGraph(parent int64) *graph.Graph {
	n, p := l.e.sz.probeN, gen.PForDegree(l.e.sz.probeN, fixedD)
	var serial, parallel, build, conn []float64
	var g *graph.Graph
	attempts := 0
	for r := 0; r < l.e.sz.reps; r++ {
		seed := l.e.seed(forProbe, r)
		var tries int
		var ok bool
		serial = append(serial, ms(l.tr.time(parent, "gen.ConnectedGnp", func() { g, tries, ok = gen.ConnectedGnp(n, p, xrand.New(seed), 100) })))
		attempts += tries
		if !ok {
			l.fail("no connected G(%d, %g/n) from seed %d", n, fixedD, seed)
			return nil
		}
		parallel = append(parallel, ms(l.tr.time(parent, "repro.ConnectedGnpDegree", func() { repro.ConnectedGnpDegree(n, fixedD, repro.NewRand(seed)) })))
		b := graph.NewBuilder(n)
		b.Grow(g.M())
		g.Edges(func(u, v int32) bool { b.AddEdgeUnchecked(u, v); return true })
		var h *graph.Graph
		build = append(build, ms(l.tr.time(parent, "graph.Builder.Build", func() { h = b.Build() })))
		conn = append(conn, ms(l.tr.time(parent, "graph.IsConnected", func() { ok = graph.IsConnected(h) })))
		if !ok || h.M() != g.M() {
			l.fail("rebuilt graph has %d of %d edges, connected %v", h.M(), g.M(), ok)
		}
	}
	l.m["gen.connected_gnp_ms"] = median(serial)
	l.m["gen.attempts"] = float64(attempts) / float64(l.e.sz.reps)
	l.m["gen.parallel_gnp_ms"] = median(parallel)
	l.m["graph.build_ms"] = median(build)
	l.m["graph.is_connected_ms"] = median(conn)
	return g
}

// connected samples a connected G(n, d/n) for a probe.
func (l *ledger) connected(n int, d float64, id int) *graph.Graph {
	g, ok := repro.ConnectedGnpDegree(n, d, repro.NewRand(l.e.seed(forProbe, id)))
	if !ok {
		l.fail("no connected G(%d, %g/n)", n, d)
		return nil
	}
	return g
}

// radioCore measures the scalar engine and the Theorem 5 schedule builder
// on the fixed workload.
func (l *ledger) radioCore(parent int64, g *graph.Graph) {
	n, reps := g.N(), l.e.sz.reps
	proto := core.NewDistributedProtocol(n, fixedD)
	budget := core.MaxRoundsFor(n)

	var news, trials []float64
	var e *radio.Engine
	for r := 0; r < reps; r++ {
		news = append(news, ms(l.tr.time(parent, "radio.NewEngineMulti", func() { e = radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed) })))
	}
	rounds := 0
	for r := 0; r < reps; r++ {
		seed := l.e.seed(forProbe, 1000+r)
		var got int
		trials = append(trials, ms(l.tr.time(parent, "radio.BroadcastTimeOnContext", func() {
			got, _ = radio.BroadcastTimeOnContext(l.ctx, e, proto, budget, xrand.New(seed))
		})))
		if got > budget {
			l.fail("a trial took %d rounds, budget %d", got, budget)
		}
		rounds += got
	}
	l.m["radio.engine_new_ms"] = median(news)
	l.m["radio.trial_ms"] = median(trials)
	l.m["radio.rounds_per_trial"] = float64(rounds) / float64(reps)

	l.m["radio.trial_ms_small"] = l.trialMs(parent, l.e.sz.smallN, 2*math.Log(float64(l.e.sz.smallN)), 2000, 4*reps, nil)
	var c trace.Counters
	l.m["radio.observed_trial_ms"] = l.trialMs(parent, l.e.sz.observedN, fixedD, 3000, reps, &c)
	if c.Runs != reps {
		l.fail("counters saw %d of %d observed runs", c.Runs, reps)
	}

	var builds []float64
	length := 0
	for r := 0; r < reps; r++ {
		var s *radio.Schedule
		var err error
		builds = append(builds, ms(l.tr.time(parent, "core.BuildCentralizedSchedule", func() {
			s, _, err = core.BuildCentralizedSchedule(g, 0, fixedD, core.DefaultCentralizedConfig(l.e.seed(forProbe, 4000+r)))
		})))
		if err != nil {
			l.fail("centralized schedule: %v", err)
			return
		}
		length += s.Len()
	}
	l.m["core.schedule_build_ms"] = median(builds)
	l.m["core.schedule_rounds"] = float64(length) / float64(reps)
}

// trialMs is the median time of trials on a reused engine at size n.
func (l *ledger) trialMs(parent int64, n int, d float64, id, trials int, obs trace.Observer) float64 {
	g := l.connected(n, d, id)
	if g == nil {
		return 0
	}
	e := radio.NewEngineMulti(g, []int32{0}, radio.StrictInformed)
	e.Attach(obs)
	proto := core.NewDistributedProtocol(n, d)
	budget := core.MaxRoundsFor(n)
	name := "radio.BroadcastTimeOnContext"
	if obs != nil {
		name += "+observer"
	}
	var ts []float64
	for r := 0; r < trials; r++ {
		seed := l.e.seed(forProbe, id+1+r)
		ts = append(ts, ms(l.tr.time(parent, name, func() { radio.BroadcastTimeOnContext(l.ctx, e, proto, budget, xrand.New(seed)) })))
	}
	return median(ts)
}

// laneEngine measures the lane engine on the fixed workload.
func (l *ledger) laneEngine(parent int64, g *graph.Graph) {
	n, reps := g.N(), l.e.sz.reps
	src := []int32{0}
	plan, ok := lanes.NewPlan(core.NewDistributedProtocol(n, fixedD), core.MaxRoundsFor(n))
	if !ok {
		l.fail("the distributed protocol has no lane plan")
		return
	}
	seeds := sweep.Seeds(2*lanes.Width, l.e.seed(forProbe, 5000))
	block := seeds[lanes.Width:]
	out := make([]int, len(seeds))

	var news []float64
	for r := 0; r < reps; r++ {
		news = append(news, ms(l.tr.time(parent, "lanes.NewEngine", func() { lanes.NewEngine(g, src, plan) })))
	}
	l.m["lanes.engine_new_ms"] = median(news)

	// What a fresh engine allocates through its first block, the cost exec
	// pays per worker per RunBatch call, and then per block once warm.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	le := lanes.NewEngine(g, src, plan)
	le.Run(block, out[:lanes.Width])
	runtime.ReadMemStats(&m1)
	l.m["lanes.first_block_alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3
	runtime.ReadMemStats(&m0)
	le.Run(block, out[:lanes.Width])
	runtime.ReadMemStats(&m1)
	l.m["lanes.alloc_kb_per_block"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3

	var runs, blocks []float64
	for r := 0; r < reps; r++ {
		runs = append(runs, ms(l.tr.time(parent, "lanes.Engine.Run", func() { le.Run(block, out[:lanes.Width]) })))
		var err error
		blocks = append(blocks, ms(l.tr.time(parent, "lanes.RunBlocks", func() { err = lanes.RunBlocks(l.ctx, g, src, plan, seeds, 0, 0, out) })))
		if err != nil {
			l.fail("lanes.RunBlocks: %v", err)
			return
		}
	}
	l.m["lanes.ns_per_trial"] = median(runs) * 1e6 / lanes.Width
	l.m["lanes.runblocks_ms"] = median(blocks)
}

// marginals measures what exec and the facade add to the engines below
// them. A difference of two calls of a few hundred milliseconds at n=10^5
// drowns in the machine's speed swings, so these run at marginN, where
// many rotated pairs fit in the ledger.
func (l *ledger) marginals(parent int64) {
	n, reps := l.e.sz.marginN, l.e.sz.marginReps
	g := l.connected(n, fixedD, 5500)
	if g == nil {
		return
	}
	proto := core.NewDistributedProtocol(n, fixedD)
	budget := core.MaxRoundsFor(n)
	src := []int32{0}
	req := &exec.Request{Graph: g, Sources: src, Protocol: proto, MaxRounds: budget}
	plan, ok := lanes.NewPlan(proto, budget)
	if !ok {
		l.fail("the distributed protocol has no lane plan")
		return
	}
	fallbacks := exec.Snapshot().Scalar.Fallbacks

	// exec.Time against a fresh scalar engine plus the same trial.
	var direct, viaExec []float64
	for r := 0; r < reps; r++ {
		seed := l.e.seed(forProbe, 5600+r)
		var got, want int
		inTurn(r, func() {
			direct = append(direct, ms(l.tr.time(parent, "radio.NewEngineMulti+trial", func() {
				e := radio.NewEngineMulti(g, src, radio.StrictInformed)
				want, _ = radio.BroadcastTimeOnContext(l.ctx, e, proto, budget, xrand.New(seed))
			})))
		}, func() {
			viaExec = append(viaExec, ms(l.tr.time(parent, "exec.Time", func() { got, _ = exec.Time(l.ctx, req, xrand.New(seed)) })))
		})
		if got != want || got > budget {
			l.fail("exec.Time took %d rounds, the engine %d (budget %d)", got, want, budget)
		}
	}
	l.m["exec.time_marginal_ms"] = pairedMedian(viaExec, direct)

	// A warm session against a warm lane engine, one block.
	batchSeed := l.e.seed(forProbe, 5001)
	seeds := sweep.Seeds(2*lanes.Width, batchSeed)
	block := seeds[lanes.Width:]
	outA, outB := make([]int, len(seeds)), make([]int, len(seeds))
	le := lanes.NewEngine(g, src, plan)
	le.Run(block, outA[:lanes.Width])
	sess := exec.Open(req)
	if err := sess.RunSeeds(l.ctx, block, outB[:lanes.Width]); err != nil {
		l.fail("session: %v", err)
		return
	}
	var engine, session []float64
	for r := 0; r < reps; r++ {
		inTurn(r, func() {
			engine = append(engine, ms(l.tr.time(parent, "lanes.Engine.Run", func() { le.Run(block, outA[:lanes.Width]) })))
		}, func() {
			session = append(session, ms(l.tr.time(parent, "exec.Session.RunSeeds", func() { sess.RunSeeds(l.ctx, block, outB[:lanes.Width]) })))
		})
		if !equalInts(outA[:lanes.Width], outB[:lanes.Width]) {
			l.fail("session and lane engine disagree on the same seeds")
		}
	}
	l.m["exec.session_marginal_ms"] = pairedMedian(session, engine)

	// RunBatch over exec.RunSeeds over lanes.RunBlocks, on the same seeds.
	var blocks, runSeeds, batch []float64
	for r := 0; r < reps; r++ {
		var rounds []int
		var e1, e2, e3 error
		inTurn(r, func() {
			blocks = append(blocks, ms(l.tr.time(parent, "lanes.RunBlocks", func() { e1 = lanes.RunBlocks(l.ctx, g, src, plan, seeds, 0, 0, outA) })))
		}, func() {
			runSeeds = append(runSeeds, ms(l.tr.time(parent, "exec.RunSeeds", func() { _, e2 = exec.RunSeeds(l.ctx, req, seeds, outB) })))
		}, func() {
			batch = append(batch, ms(l.tr.time(parent, "repro.RunBatch", func() {
				rounds, e3 = repro.RunBatch(g, 0, len(seeds), repro.WithDegree(fixedD), repro.WithSeed(batchSeed))
			})))
		})
		if err := errors.Join(e1, e2, e3); err != nil {
			l.fail("lane batch: %v", err)
			return
		}
		if !equalInts(outA, outB) || !equalInts(outA, rounds) {
			l.fail("RunBlocks, exec.RunSeeds and RunBatch disagree on the same seeds")
		}
	}
	l.m["exec.runseeds_marginal_ms"] = pairedMedian(runSeeds, blocks)
	l.m["facade.runbatch_marginal_ms"] = pairedMedian(batch, runSeeds)
	l.m["exec.fallbacks"] = float64(exec.Snapshot().Scalar.Fallbacks - fallbacks)
}

// facade measures repro.RunContext on a caller's engine against the
// exec.Run it wraps, at the serving size where the difference shows.
func (l *ledger) facade(parent int64) {
	n := l.e.sz.smallN
	d := 2 * math.Log(float64(n))
	g := l.connected(n, d, 6000)
	if g == nil {
		return
	}
	e := repro.NewEngine(g, 0)
	proto := core.NewDistributedProtocol(n, d)
	budget := core.MaxRoundsFor(n)
	var viaFacade, viaExec []float64
	for r := 0; r < 10*l.e.sz.marginReps; r++ {
		seed := l.e.seed(forProbe, 6001+r)
		// Result.InformedAt aliases the engine, so keep only the counts.
		var a, b int
		inTurn(r, func() {
			viaFacade = append(viaFacade, 1e3*ms(l.tr.time(parent, "repro.RunContext", func() {
				res, _ := repro.RunContext(l.ctx, g, 0, repro.WithDegree(d), repro.WithSeed(seed), repro.WithEngine(e))
				a = res.Rounds
			})))
		}, func() {
			viaExec = append(viaExec, 1e3*ms(l.tr.time(parent, "exec.Run", func() {
				res, _ := exec.Run(l.ctx, &exec.Request{Graph: g, Sources: []int32{0}, Protocol: proto, MaxRounds: budget, Engine: e}, xrand.New(seed))
				b = res.Rounds
			})))
		})
		if a != b || a > budget {
			l.fail("RunContext took %d rounds, exec.Run %d", a, b)
		}
	}
	l.m["facade.run_marginal_us"] = pairedMedian(viaFacade, viaExec)
}

// campaign measures campaign.Run of one FixedGraph lane point at marginN,
// with and without a checkpoint, against the same trials run directly:
// the point's graph sampled from its seed and its seeds run through an
// exec session.
func (l *ledger) campaign(parent int64) {
	n, trials := l.e.sz.marginN, l.e.sz.campaignTrials
	var mem, disk, direct, kb []float64
	for r := 0; r < l.e.sz.marginReps; r++ {
		spec := &campaign.Spec{Name: "ledger", Seed: l.e.seed(forProbe, 7000+r), Trials: trials,
			Points: []campaign.PointSpec{point("distributed", n, true)}}
		var rep, ckRep *campaign.Report
		var e1, e2, e3 error
		var out []int
		dir := filepath.Join(l.e.dir, fmt.Sprintf("ledger-%d", r))
		inTurn(r, func() {
			mem = append(mem, ms(l.tr.time(parent, "campaign.Run", func() { rep, e1 = campaign.Run(spec, campaign.Options{Workers: 1}) })))
		}, func() {
			disk = append(disk, ms(l.tr.time(parent, "campaign.Run+checkpoint", func() {
				ckRep, e2 = campaign.Run(spec, campaign.Options{Workers: 1, Dir: dir})
			})))
		}, func() {
			direct = append(direct, ms(l.tr.time(parent, "gen.ConnectedGnp+exec.Session.RunSeeds", func() {
				pointSeed := xrand.New(spec.Seed).DeriveSeed(1)
				g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, fixedD), xrand.New(pointSeed).Derive(0), 100)
				if !ok {
					e3 = fmt.Errorf("no connected G(%d, %g/n)", n, fixedD)
					return
				}
				sess := exec.Open(&exec.Request{Graph: g, Sources: []int32{0},
					Protocol: core.NewDistributedProtocol(n, fixedD), MaxRounds: core.MaxRoundsFor(n)})
				out = make([]int, trials)
				e3 = sess.RunSeeds(l.ctx, sweep.Seeds(trials, pointSeed), out)
			})))
		})
		size, e4 := dirBytes(dir)
		kb = append(kb, float64(size)/1e3)
		removeAll(dir)
		if err := errors.Join(e1, e2, e3, e4); err != nil {
			l.fail("campaign: %v", err)
			return
		}
		a, _ := rep.JSON()
		b, _ := ckRep.JSON()
		sum := 0
		for _, v := range out {
			sum += v
		}
		mean := float64(sum) / float64(trials)
		if !bytes.Equal(a, b) || math.Abs(float64(rep.Points[0].Mean)-mean) > 1e-9*mean {
			l.fail("campaign reports and the direct run of the same trials disagree")
		}
	}
	frac := make([]float64, len(mem))
	for i := range mem {
		frac[i] = (mem[i] - direct[i]) / mem[i]
	}
	l.m["campaign.overhead_frac"] = median(frac)
	l.m["campaign.checkpoint_marginal_ms"] = pairedMedian(disk, mem)
	l.m["campaign.checkpoint_kb"] = median(kb)

	// Every worker of a FixedGraph point samples the point's graph itself.
	// This is that cost for one campaign-fixed campaign: the sampling of
	// each of its points, summed, times the default worker count.
	points := fixedPoints(l.e.sz)
	var sampling []float64
	for r := 0; r < l.e.sz.reps; r++ {
		parentSeed := xrand.New(l.e.seed(forProbe, 7500+r))
		total := 0.0
		for p, pt := range points {
			n := pt.Trial.N
			rng := xrand.New(parentSeed.DeriveSeed(uint64(p) + 1)).Derive(0)
			var ok bool
			total += ms(l.tr.time(parent, "gen.ConnectedGnp(point)", func() { _, _, ok = gen.ConnectedGnp(n, gen.PForDegree(n, fixedD), rng, 100) }))
			if !ok {
				l.fail("no connected G(%d, %g/n) for point %s", n, fixedD, pt.ID)
				return
			}
		}
		sampling = append(sampling, total)
	}
	l.m["campaign.fixed_graph_ms"] = median(sampling) * float64(runtime.GOMAXPROCS(0))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// serve runs a fixed number of requests against a fresh, warm server and
// splits their latency into transport, handler and simulation.
func (l *ledger) serve(parent int64) {
	n := l.e.sz.smallN
	s := newServeInstance(l.e, n)
	defer s.close()
	if err := s.warm(); err != nil {
		l.fail("serve: %v", err)
		return
	}
	before, err := s.metrics()
	if err != nil {
		l.fail("serve: %v", err)
		return
	}
	perClient := l.e.sz.probeRequests / clients
	var ops []opResult
	var errs []error
	l.tr.do(parent, "serve.closed-loop", func(id int64) {
		ops, errs = s.drive(newClients(l.e, forClient), func(cl *client) bool { return cl.k < perClient }, l.tr, id)
	})
	after, err := s.metrics()
	if err != nil {
		l.fail("serve: %v", err)
		return
	}
	if len(errs) > 0 {
		l.fail("serve: %d of %d requests failed, the first: %v", len(errs), len(ops), errs[0])
	}
	var all, stream, transport []float64
	for _, op := range ops {
		all = append(all, ms(op.lat))
	}
	for _, r := range s.reqs {
		if r.stream {
			stream = append(stream, ms(r.lat))
		} else {
			transport = append(transport, 1e3*(ms(r.lat)-r.resp.ElapsedMs))
		}
	}
	l.m["serve.latency_p99_ms"] = percentile(all, 0.99)
	l.m["serve.stream_p50_ms"] = median(stream)
	l.m["serve.transport_marginal_us"] = median(transport)
	hits, misses := after.Exec.Scalar.PoolHits-before.Exec.Scalar.PoolHits, after.Exec.Scalar.PoolMisses-before.Exec.Scalar.PoolMisses
	l.m["exec.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	hits, misses = after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	l.m["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	l.m["serve.rejected"] = float64(after.Pool.Rejected - before.Pool.Rejected)

	l.handler(parent, s)

	cache := serve.NewGraphCache(len(s.graphSeeds))
	key := serve.GraphKey{Generator: "gnp-connected", N: n, D: s.d, Seed: s.graphSeeds[0]}
	if _, err := cache.Get(key); err != nil {
		l.fail("serve: cache: %v", err)
		return
	}
	const gets = 20000
	var per []float64
	for r := 0; r < l.e.sz.reps; r++ {
		d := l.tr.time(parent, "serve.GraphCache.Get", func() {
			for i := 0; i < gets; i++ {
				cache.Get(key)
			}
		})
		per = append(per, float64(d.Nanoseconds())/gets)
	}
	l.m["serve.cache_get_ns"] = median(per)
}

// handler measures the handler's own time, one request at a time:
// elapsed_ms minus the same run in-process next to it, on a warm engine
// of its own. Pairs adjacent in time keep the machine's speed swings out
// of the difference.
func (l *ledger) handler(parent int64, s *serveInstance) {
	graphs := map[uint64]*repro.Graph{}
	engines := map[uint64]*repro.Engine{}
	for _, gs := range s.graphSeeds {
		g, ok := repro.ConnectedGnpDegree(s.n, s.d, repro.NewRand(gs))
		if !ok {
			l.fail("serve: graph seed %d gave no connected graph", gs)
			return
		}
		graphs[gs], engines[gs] = g, repro.NewEngine(g, 0)
	}
	cl := &client{rng: xrand.New(l.e.seed(forProbe, 9000))}
	var handler []float64
	for ; cl.k < 10*l.e.sz.marginReps; cl.k++ {
		r := cl.next(s.graphSeeds)
		r.stream = false
		var res repro.Result
		var in float64
		var err error
		inTurn(cl.k, func() {
			l.tr.time(parent, "serve.POST /v1/run", func() { r.resp, err = s.request(&r) })
		}, func() {
			in = ms(l.tr.time(parent, "repro.RunContext", func() {
				res, _ = repro.RunContext(l.ctx, graphs[r.graphSeed], 0, repro.WithDegree(s.d), repro.WithSeed(r.seed), repro.WithEngine(engines[r.graphSeed]))
			}))
		})
		if err != nil {
			l.fail("serve: %v", err)
			return
		}
		if res.Rounds != r.resp.Rounds {
			l.fail("serve: request answered %d rounds, in-process %d", r.resp.Rounds, res.Rounds)
			return
		}
		handler = append(handler, 1e3*(r.resp.ElapsedMs-in))
	}
	l.m["serve.handler_marginal_us"] = median(handler)
}

// cluster runs one clustered campaign and reads shard turnaround and
// worker idle time off the coordinator's events.
func (l *ledger) cluster(parent int64) {
	c := newClusterInstance(l.e, l.e.sz.probePoints)
	defer c.close()
	var err error
	l.tr.time(parent, "cluster.Coordinator.Run", func() { _, err = c.campaign(l.e.seed(forProbe, 8000)) })
	if err != nil {
		l.fail("cluster: %v", err)
		return
	}
	turnaround, idle := c.shardTimes()
	l.m["cluster.turnaround_ms"] = median(turnaround)
	l.m["cluster.idle_ms"] = median(idle)
	l.m["cluster.offers_busy"] = float64(c.busy)
	l.m["cluster.leases_reassigned"] = float64(c.reassigned)

	spec := c.runs[0].spec
	var compute []float64
	for p := 0; p < len(spec.Points) && p < 4*l.e.sz.reps; p++ {
		compute = append(compute, ms(l.tr.time(parent, "campaign.Run(shard)", func() {
			_, err = campaign.Run(spec, campaign.Options{PointLo: p, PointHi: p + 1})
		})))
		if err != nil {
			l.fail("cluster: local shard: %v", err)
			return
		}
	}
	l.m["cluster.shard_compute_ms"] = median(compute)
}

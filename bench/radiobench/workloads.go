package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// fixedD is the expected degree of the repository's fixed workload,
// connected G(n, d/n) with n = 10^5 and d = 25.
const fixedD = 25.0

// clusterD keeps the cluster workload's small graphs connected.
const clusterD = 15.0

// clients is the load generator's concurrency: one goroutine and one
// connection per core of the 2-core machine the bounds were set on.
const clients = 2

// sizes fixes every input size of one scale.
type sizes struct {
	batchN, batchTrials                int
	fixedN, collisionN, fixedTrials    int
	resampleN, resampleTrials          int
	serveN, serveGraphs                int
	clusterPoints, clusterN, clusterTr int

	// Per-layer ledger inputs. Absolute times are medians of reps calls
	// at probeN; marginals are medians of marginReps rotated pairs at
	// marginN.
	probeN, smallN, observedN  int
	marginN, campaignTrials    int
	probeRequests, probePoints int
	reps, marginReps           int
}

var scales = map[string]sizes{
	"full": {
		batchN: 100_000, batchTrials: 128,
		fixedN: 100_000, collisionN: 50_000, fixedTrials: 64,
		resampleN: 100_000, resampleTrials: 4,
		serveN: 5000, serveGraphs: 8,
		clusterPoints: 64, clusterN: 2000, clusterTr: 64,
		probeN: 100_000, smallN: 5000, observedN: 50_000,
		marginN: 10_000, campaignTrials: 128,
		probeRequests: 2000, probePoints: 32,
		reps: 7, marginReps: 42,
	},
	// smoke runs every code path on tiny inputs, for the test suite.
	"smoke": {
		batchN: 2000, batchTrials: 128,
		fixedN: 2000, collisionN: 1000, fixedTrials: 16,
		resampleN: 2000, resampleTrials: 4,
		serveN: 300, serveGraphs: 4,
		clusterPoints: 4, clusterN: 300, clusterTr: 16,
		probeN: 2000, smallN: 300, observedN: 1000,
		marginN: 1000, campaignTrials: 64,
		probeRequests: 64, probePoints: 4,
		reps: 3, marginReps: 3,
	},
}

// env is what a workload is built from: sizes, the base seed, and a
// scratch directory inside the checkout.
type env struct {
	sz   sizes
	base *xrand.Rand // only DeriveSeed is called, so it never advances
	dir  string
}

// Seed purposes keep the streams of different inputs apart.
const (
	forGraph uint64 = iota + 1
	forOp
	forWarm
	forClient
	forProbe
)

func (e *env) seed(purpose uint64, i int) uint64 {
	return e.base.DeriveSeed(purpose<<32 | uint64(i))
}

// opResult is one timed operation.
type opResult struct {
	lat    time.Duration
	trials int
	err    error
}

// instance is a set-up workload, warm and ready to time.
type instance interface {
	// step performs slice i of the timed work, one operation or, for
	// the serving loop, a segment of requests, and returns its
	// operations; a non-nil tracer records a span around each.
	step(i int, tr *tracer) []opResult
	// verify checks the outputs of every operation run so far.
	verify() []error
	// notes are diagnostic lines printed with the result.
	notes() []string
	close()
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// workloads is the benchmark's fixed set; BENCHMARK.json repeats the names
// with the reason for each.
var workloads = []workload{
	{"batch-lanes", setupBatch},
	{"campaign-fixed", setupFixed},
	{"campaign-resample", setupResample},
	{"serve-hot", setupServe},
	{"cluster-shards", setupCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// one times a single operation as a slice of its own.
func one(tr *tracer, span string, op func() (int, error)) []opResult {
	var trials int
	var err error
	lat := tr.time(0, span, func() { trials, err = op() })
	return []opResult{{lat: lat, trials: trials, err: err}}
}

// --- batch-lanes ----------------------------------------------------------

type batchInstance struct {
	e      *env
	g      *repro.Graph
	budget int
	before exec.Stats
	rounds [][]int // per operation, in run order
}

func setupBatch(e *env) (instance, error) {
	n := e.sz.batchN
	g, ok := repro.ConnectedGnpDegree(n, fixedD, repro.NewRand(e.seed(forGraph, 0)))
	if !ok {
		return nil, fmt.Errorf("batch-lanes: no connected G(%d, %g/n)", n, fixedD)
	}
	b := &batchInstance{e: e, g: g, budget: repro.MaxRounds(n)}
	if _, err := b.call(e.seed(forWarm, 0)); err != nil {
		return nil, err
	}
	b.before = exec.Snapshot()
	return b, nil
}

func (b *batchInstance) call(seed uint64) ([]int, error) {
	return repro.RunBatch(b.g, 0, b.e.sz.batchTrials, repro.WithDegree(fixedD), repro.WithSeed(seed))
}

func (b *batchInstance) step(i int, tr *tracer) []opResult {
	return one(tr, "repro.RunBatch", func() (int, error) {
		rounds, err := b.call(b.e.seed(forOp, i))
		if err != nil {
			return 0, err
		}
		b.rounds = append(b.rounds, rounds)
		return len(rounds), nil
	})
}

func (b *batchInstance) verify() []error {
	var errs []error
	trials := 0
	for i, rounds := range b.rounds {
		trials += len(rounds)
		for t, r := range rounds {
			if r > b.budget {
				errs = append(errs, fmt.Errorf("batch-lanes: op %d trial %d took %d rounds, budget %d", i, t, r, b.budget))
				break
			}
		}
	}
	after := exec.Snapshot()
	if d := after.Scalar.Fallbacks - b.before.Scalar.Fallbacks; d != 0 {
		errs = append(errs, fmt.Errorf("batch-lanes: exec fell back to the scalar engine %d times", d))
	}
	if d := after.Lanes.Trials - b.before.Lanes.Trials; d != int64(trials) {
		errs = append(errs, fmt.Errorf("batch-lanes: lane engine ran %d trials, want %d", d, trials))
	}
	if len(b.rounds) > 0 {
		again, err := b.call(b.e.seed(forOp, 0))
		if err != nil {
			errs = append(errs, err)
		} else if !equalInts(again, b.rounds[0]) {
			errs = append(errs, fmt.Errorf("batch-lanes: re-running the first call gave different rounds"))
		}
	}
	return errs
}

func (b *batchInstance) notes() []string { return nil }
func (b *batchInstance) close()          {}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- campaign-fixed and campaign-resample ---------------------------------

type campaignRun struct {
	spec   *campaign.Spec
	dir    string
	report []byte
}

type campaignInstance struct {
	e          *env
	name       string
	points     []campaign.PointSpec
	trials     int
	checkpoint bool
	dirs       int
	fallbacks  int64 // exec's scalar fallbacks after set-up
	runs       []campaignRun
}

func point(kind string, n int, fixedGraph bool) campaign.PointSpec {
	return campaign.PointSpec{ID: kind, X: float64(n),
		Trial: campaign.TrialSpec{Kind: kind, N: n, D: fixedD, FixedGraph: fixedGraph}}
}

// fixedPoints are the points of a campaign-fixed campaign.
func fixedPoints(sz sizes) []campaign.PointSpec {
	return []campaign.PointSpec{
		point("distributed", sz.fixedN, true),
		point("decay", sz.fixedN, true),
		point("aloha", sz.fixedN, true),
		// The observer on this point forces the scalar engine.
		point("collision-rate", sz.collisionN, true),
	}
}

func setupFixed(e *env) (instance, error) {
	return newCampaign(e, &campaignInstance{
		name:       "campaign-fixed",
		points:     fixedPoints(e.sz),
		trials:     e.sz.fixedTrials,
		checkpoint: true,
	})
}

func setupResample(e *env) (instance, error) {
	sz := e.sz
	return newCampaign(e, &campaignInstance{
		name: "campaign-resample",
		points: []campaign.PointSpec{
			point("distributed", sz.resampleN, false),
			point("centralized", sz.resampleN, false),
		},
		trials: sz.resampleTrials,
	})
}

func newCampaign(e *env, c *campaignInstance) (instance, error) {
	c.e = e
	if _, err := c.campaign(e.seed(forWarm, 0)); err != nil {
		return nil, err
	}
	c.runs = nil
	c.fallbacks = exec.Snapshot().Scalar.Fallbacks
	return c, nil
}

// campaign runs one campaign of the instance's points.
func (c *campaignInstance) campaign(seed uint64) (int, error) {
	spec := &campaign.Spec{Name: c.name, Seed: seed, Trials: c.trials, Points: c.points}
	var opt campaign.Options
	if c.checkpoint {
		c.dirs++
		opt.Dir = filepath.Join(c.e.dir, fmt.Sprintf("%s-%04d", c.name, c.dirs))
	}
	rep, err := campaign.Run(spec, opt)
	if err != nil {
		return 0, err
	}
	js, err := rep.JSON()
	if err != nil {
		return 0, err
	}
	c.runs = append(c.runs, campaignRun{spec: spec, dir: opt.Dir, report: js})
	return c.trials * len(c.points), nil
}

func (c *campaignInstance) step(i int, tr *tracer) []opResult {
	return one(tr, "campaign.Run", func() (int, error) {
		return c.campaign(c.e.seed(forOp, i))
	})
}

func (c *campaignInstance) verify() []error {
	var errs []error
	// Lane points must stay on the lane engine; the rest never ask for it.
	if d := exec.Snapshot().Scalar.Fallbacks - c.fallbacks; d != 0 {
		errs = append(errs, fmt.Errorf("%s: exec fell back to the scalar engine %d times", c.name, d))
	}
	for i, r := range c.runs {
		var rep campaign.Report
		if err := json.Unmarshal(r.report, &rep); err != nil {
			errs = append(errs, fmt.Errorf("%s: op %d: %v", c.name, i, err))
			continue
		}
		if !rep.Complete {
			errs = append(errs, fmt.Errorf("%s: op %d: report incomplete", c.name, i))
		}
		for _, p := range rep.Points {
			if p.Failures != 0 || p.Consumed != c.trials {
				errs = append(errs, fmt.Errorf("%s: op %d point %s: %d failed, %d of %d trials",
					c.name, i, p.ID, p.Failures, p.Consumed, c.trials))
			}
		}
		if r.dir == "" {
			continue
		}
		disk, err := campaign.ReportDir(r.dir)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: op %d: %v", c.name, i, err))
			continue
		}
		js, err := disk.JSON()
		if err != nil || !bytes.Equal(js, r.report) {
			errs = append(errs, fmt.Errorf("%s: op %d: checkpoint report differs from the returned one", c.name, i))
		}
	}
	return errs
}

func (c *campaignInstance) notes() []string { return nil }
func (c *campaignInstance) close()          {}

// --- serve-hot ------------------------------------------------------------

// served is one request and its response.
type served struct {
	graphSeed, seed uint64
	stream          bool
	resp            serve.RunResponse
	lat             time.Duration
}

type serveInstance struct {
	e          *env
	n          int
	d          float64
	graphSeeds []uint64
	srv        *serve.Server
	ts         *httptest.Server
	transport  *http.Transport
	client     *http.Client
	timed      []*client // the timed region's request streams

	mu   sync.Mutex
	reqs []served
}

func newServeInstance(e *env, n int) *serveInstance {
	s := &serveInstance{e: e, n: n, d: 2 * math.Log(float64(n)), timed: newClients(e, forOp)}
	for k := 0; k < e.sz.serveGraphs; k++ {
		s.graphSeeds = append(s.graphSeeds, e.seed(forGraph, k))
	}
	s.srv = serve.NewServer(serve.Config{})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	s.client = &http.Client{Transport: s.transport, Timeout: time.Minute}
	return s
}

func setupServe(e *env) (instance, error) {
	s := newServeInstance(e, e.sz.serveN)
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm has both clients request every graph in the same order, so each
// graph is cached and has an engine pooled per client before timing.
func (s *serveInstance) warm() error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, gs := range s.graphSeeds {
				r := served{graphSeed: gs, seed: s.e.seed(forWarm, c<<16|k) | 1, stream: (k+c)%2 == 0}
				if _, err := s.request(&r); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client is one closed-loop client's request stream: its k-th request
// draws graph and protocol seeds from rng, and every eighth is streamed.
type client struct {
	rng *xrand.Rand
	k   int
}

// next draws the client's next request from graphSeeds.
func (cl *client) next(graphSeeds []uint64) served {
	return served{
		graphSeed: graphSeeds[cl.rng.Intn(len(graphSeeds))],
		seed:      cl.rng.Uint64() | 1, // the server reads seed 0 as 1
		stream:    cl.k%8 == 7,
	}
}

func newClients(e *env, purpose uint64) []*client {
	cs := make([]*client, clients)
	for c := range cs {
		cs[c] = &client{rng: xrand.New(e.seed(purpose, c))}
	}
	return cs
}

// serveSegment is one slice of the serving loop.
const serveSegment = 500 * time.Millisecond

// drive runs the closed loop: each client sends its next request when
// the previous one has been answered, while more allows. Spans go under
// parent.
func (s *serveInstance) drive(cs []*client, more func(*client) bool, tr *tracer, parent int64) ([]opResult, []error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ops  []opResult
		errs []error
	)
	for _, cl := range cs {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var mine []opResult
			for ; more(cl); cl.k++ {
				r := cl.next(s.graphSeeds)
				var err error
				name := "serve.POST /v1/run"
				if r.stream {
					name = "serve.POST /v1/run/stream"
				}
				r.lat = tr.time(parent, name, func() { r.resp, err = s.request(&r) })
				mine = append(mine, opResult{lat: r.lat, trials: 1, err: err})
				if err == nil {
					s.mu.Lock()
					s.reqs = append(s.reqs, r)
					s.mu.Unlock()
				} else {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	return ops, errs
}

// streamTrailer is the last line of a /v1/run/stream response.
type streamTrailer struct {
	Type   string            `json:"type"`
	Result serve.RunResponse `json:"result"`
	Error  string            `json:"error"`
}

// request sends one run and checks what can be checked on the spot: the
// status and that the broadcast informed every node.
func (s *serveInstance) request(r *served) (serve.RunResponse, error) {
	body, err := json.Marshal(serve.RunRequest{N: s.n, D: s.d, GraphSeed: r.graphSeed, Seed: r.seed})
	if err != nil {
		return serve.RunResponse{}, err
	}
	path := "/v1/run"
	if r.stream {
		path = "/v1/run/stream"
	}
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.RunResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return serve.RunResponse{}, fmt.Errorf("serve-hot: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out serve.RunResponse
	if r.stream {
		sc := bufio.NewScanner(resp.Body)
		var last []byte
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		if err := sc.Err(); err != nil {
			return out, fmt.Errorf("serve-hot: reading stream: %w", err)
		}
		var t streamTrailer
		if err := json.Unmarshal(last, &t); err != nil || t.Type != "result" || t.Error != "" {
			return out, fmt.Errorf("serve-hot: bad stream trailer %q", last)
		}
		out = t.Result
	} else if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("serve-hot: decoding response: %w", err)
	}
	if !out.Completed || out.Informed != s.n {
		return out, fmt.Errorf("serve-hot: broadcast informed %d of %d nodes", out.Informed, s.n)
	}
	return out, nil
}

// metrics reads the server's GET /metrics.
func (s *serveInstance) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

func (s *serveInstance) step(i int, tr *tracer) []opResult {
	end := time.Now().Add(serveSegment)
	ops, _ := s.drive(s.timed, func(*client) bool { return time.Now().Before(end) }, tr, 0)
	return ops
}

// verify replays 16 requests spread over the run in-process, on graphs
// rebuilt from their seeds, and compares the counts.
func (s *serveInstance) verify() []error {
	var errs []error
	graphs := map[uint64]*repro.Graph{}
	const samples = 16
	for k := 0; k < samples && len(s.reqs) > 0; k++ {
		r := s.reqs[k*len(s.reqs)/samples]
		g := graphs[r.graphSeed]
		if g == nil {
			var ok bool
			g, ok = repro.ConnectedGnpDegree(s.n, s.d, repro.NewRand(r.graphSeed))
			if !ok {
				errs = append(errs, fmt.Errorf("serve-hot: graph seed %d gave no connected graph", r.graphSeed))
				continue
			}
			graphs[r.graphSeed] = g
		}
		res, err := repro.Run(g, 0, repro.WithDegree(s.d), repro.WithSeed(r.seed))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if res.Rounds != r.resp.Rounds || res.Stats.Transmissions != r.resp.Transmissions || res.Stats.Collisions != r.resp.Collisions {
			errs = append(errs, fmt.Errorf("serve-hot: request (graph %d, seed %d) answered rounds/tx/collisions %d/%d/%d, in-process %d/%d/%d",
				r.graphSeed, r.seed, r.resp.Rounds, r.resp.Transmissions, r.resp.Collisions,
				res.Rounds, res.Stats.Transmissions, res.Stats.Collisions))
		}
	}
	return errs
}

func (s *serveInstance) notes() []string { return nil }

func (s *serveInstance) close() {
	s.ts.Close()
	s.srv.Shutdown(5 * time.Second)
	s.transport.CloseIdleConnections()
}

// --- cluster-shards -------------------------------------------------------

// event is a coordinator event with the time it was observed.
type event struct {
	cluster.Event
	at time.Time
}

type clusterInstance struct {
	e       *env
	points  int
	workers []*serve.Server
	wts     []*httptest.Server
	urls    []string
	coordTS *httptest.Server

	mu         sync.Mutex
	handler    http.Handler // the running coordinator's, swapped per campaign
	events     []event
	busy       int64 // offers answered 429
	reassigned int64
	runs       []campaignRun
}

func newClusterInstance(e *env, points int) *clusterInstance {
	c := &clusterInstance{e: e, points: points}
	for i := 0; i < 2; i++ {
		// A spare shard slot per worker: with one slot, a re-offer races
		// the slot's release and a 429 costs a back-off.
		s := serve.NewServer(serve.Config{ShardWorkers: 2})
		ts := httptest.NewServer(s.Handler())
		c.workers = append(c.workers, s)
		c.wts = append(c.wts, ts)
		c.urls = append(c.urls, ts.URL)
	}
	c.coordTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		h := c.handler
		c.mu.Unlock()
		if h == nil {
			http.Error(w, "no campaign running", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	return c
}

func setupCluster(e *env) (instance, error) {
	c := newClusterInstance(e, e.sz.clusterPoints)
	if _, err := c.campaign(e.seed(forWarm, 0)); err != nil {
		c.close()
		return nil, err
	}
	c.runs, c.events, c.busy, c.reassigned = nil, nil, 0, 0
	return c, nil
}

func (c *clusterInstance) spec(seed uint64) *campaign.Spec {
	spec := &campaign.Spec{Name: "cluster-shards", Seed: seed, Trials: c.e.sz.clusterTr}
	for p := 0; p < c.points; p++ {
		spec.Points = append(spec.Points, campaign.PointSpec{
			ID: fmt.Sprintf("p%03d", p), X: float64(p),
			Trial: campaign.TrialSpec{Kind: "distributed", N: c.e.sz.clusterN, D: clusterD, FixedGraph: true},
		})
	}
	return spec
}

// campaign runs one clustered campaign to completion.
func (c *clusterInstance) campaign(seed uint64) (int, error) {
	spec := c.spec(seed)
	coord, err := cluster.NewCoordinator(spec, cluster.Config{
		Workers:   c.urls,
		Advertise: c.coordTS.URL,
		OnEvent: func(ev cluster.Event) {
			now := time.Now()
			c.mu.Lock()
			c.events = append(c.events, event{ev, now})
			c.mu.Unlock()
		},
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.handler = coord.Handler()
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	rep, err := coord.Run(ctx)
	cancel()
	c.mu.Lock()
	c.handler = nil
	counters := coord.Status().Counters
	c.busy += counters.OffersBusy
	c.reassigned += counters.LeasesReassigned
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	js, err := rep.JSON()
	if err != nil {
		return 0, err
	}
	c.runs = append(c.runs, campaignRun{spec: spec, report: js})
	return spec.Trials * len(spec.Points), nil
}

func (c *clusterInstance) step(i int, tr *tracer) []opResult {
	return one(tr, "cluster.Coordinator.Run", func() (int, error) {
		return c.campaign(c.e.seed(forOp, i))
	})
}

// verify compares each clustered report with a local run of its spec.
func (c *clusterInstance) verify() []error {
	var errs []error
	for i, r := range c.runs {
		rep, err := campaign.Run(r.spec, campaign.Options{})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		js, err := rep.JSON()
		if err != nil || !bytes.Equal(js, r.report) {
			errs = append(errs, fmt.Errorf("cluster-shards: op %d: report differs from a local campaign.Run", i))
		}
	}
	return errs
}

func (c *clusterInstance) notes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []string{fmt.Sprintf("cluster offers answered 429: %d, leases reassigned: %d", c.busy, c.reassigned)}
}

// shardTimes returns, over the recorded events, each shard's
// granted-to-completed time and each worker's completed-to-next-granted
// gap, in milliseconds.
func (c *clusterInstance) shardTimes() (turnaround, idle []float64) {
	c.mu.Lock()
	evs := append([]event(nil), c.events...)
	c.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	granted := map[string]time.Time{}
	lastDone := map[string]time.Time{}
	for _, ev := range evs {
		switch ev.Type {
		case "granted":
			granted[ev.Shard] = ev.at
			if t, ok := lastDone[ev.Worker]; ok {
				idle = append(idle, ms(ev.at.Sub(t)))
				delete(lastDone, ev.Worker)
			}
		case "completed":
			if t, ok := granted[ev.Shard]; ok {
				turnaround = append(turnaround, ms(ev.at.Sub(t)))
			}
			lastDone[ev.Worker] = ev.at
		}
	}
	return turnaround, idle
}

func (c *clusterInstance) close() {
	c.coordTS.Close()
	for i, ts := range c.wts {
		ts.Close()
		c.workers[i].Shutdown(5 * time.Second)
	}
}

// removeAll deletes a scratch directory, reporting failure on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "radiobench:", err)
	}
}

// Package serve is the radiosimd serving layer: a long-running HTTP/JSON
// facade over the repro simulation API and the campaign runner.
//
// Design:
//
//   - Every simulation request runs on a bounded worker pool with an
//     explicitly sized queue (Pool). A full queue rejects immediately
//     with 429 + Retry-After — backpressure is part of the contract, the
//     server never queues unboundedly.
//   - Graph instances are deterministic functions of (generator, n, d,
//     seed) and are cached in a seeded, size-bounded LRU (GraphCache)
//     with singleflight deduplication: concurrent requests for the same
//     instance build it once.
//   - Failures map onto transport status codes through the repro error
//     sentinels (errors.Is), not string matching: ErrConflictingOptions
//     and ErrNoSuchSource → 400, ErrScheduleMismatch, ErrGraphUnavailable
//     and ErrOverBudget → 422, deadline → 504, cancellation/shutdown →
//     503, ErrBusy → 429.
//   - Shutdown drains the queue for a grace period, then cancels running
//     work through contexts; the engine checks between rounds, so
//     cancellation is prompt and loss-free.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/exec"
	"repro/internal/protocols"
)

// Config sizes a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// Workers is the simulation worker-pool size (default 2).
	Workers int
	// QueueCap bounds the jobs waiting beyond the running ones
	// (default 8). A full queue means 429.
	QueueCap int
	// CacheEntries bounds the graph LRU (default 32 graphs).
	CacheEntries int
	// DefaultTimeout bounds a run when the request names none
	// (default 30s); MaxTimeout caps request-supplied timeouts
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxN caps the requestable graph size (default 2_000_000).
	MaxN int
	// CampaignWorkers bounds concurrently running campaigns (default 1);
	// further campaigns wait in state "queued".
	CampaignWorkers int
	// RetryAfter is the hint returned with 429 (default 1s).
	RetryAfter time.Duration
	// ShardWorkers bounds concurrently running cluster shards (default 1).
	// A lease offer arriving with every slot busy is answered 429 +
	// Retry-After — the same backpressure contract as the run queue — and
	// the coordinator re-offers after backing off.
	ShardWorkers int
	// ShardStartDelay delays every admitted shard before its first trial
	// (default 0). A chaos/testing knob: the cluster smoke test uses it to
	// guarantee a SIGKILL lands while a lease is held but no result has
	// been posted.
	ShardStartDelay time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 8
	}
	if out.CacheEntries <= 0 {
		out.CacheEntries = 32
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 30 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 2 * time.Minute
	}
	if out.MaxN <= 0 {
		out.MaxN = 2_000_000
	}
	if out.CampaignWorkers <= 0 {
		out.CampaignWorkers = 1
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.ShardWorkers <= 0 {
		out.ShardWorkers = 1
	}
	return out
}

// Server is the radiosimd HTTP handler set. Create with NewServer, mount
// via Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	pool  *Pool
	cache *GraphCache

	campaignCtx    context.Context
	campaignCancel context.CancelFunc
	campaignSem    chan struct{}
	campaignWG     sync.WaitGroup
	shardSem       chan struct{}

	mu         sync.Mutex
	campaigns  map[string]*campaignJob
	finished   []string // ids of finished campaigns still in campaigns, oldest first
	active     int      // queued and running campaigns
	nextID     int
	shardStats ShardStats

	metrics metrics
}

// NewServer builds a server from cfg (zero fields take defaults).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		pool:           NewPool(cfg.Workers, cfg.QueueCap),
		cache:          NewGraphCache(cfg.CacheEntries),
		campaignCtx:    ctx,
		campaignCancel: cancel,
		campaignSem:    make(chan struct{}, cfg.CampaignWorkers),
		shardSem:       make(chan struct{}, cfg.ShardWorkers),
		campaigns:      make(map[string]*campaignJob),
	}
	// A graph dropped from the LRU takes its pooled engines with it;
	// correctness never depends on this (engines are keyed by graph
	// pointer, and a rebuilt graph is a new pointer), it just keeps
	// engine memory from outliving the graphs it serves.
	s.cache.onEvict = exec.Forget
	return s
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/run/stream", s.handleRunStream)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaignSubmit)
	mux.HandleFunc("POST /v1/shard/lease", s.handleShardLease)
	mux.HandleFunc("GET /v1/campaign/{id}", s.handleCampaignStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Shutdown stops intake, drains queued and running simulations for up to
// grace, cancels whatever remains (including running campaigns, whose
// trials stop cooperatively between rounds), and waits for everything to
// exit. The HTTP listener itself is the caller's to close — typically
// http.Server.Shutdown around this.
func (s *Server) Shutdown(grace time.Duration) {
	s.pool.Shutdown(grace)
	s.campaignCancel()
	s.campaignWG.Wait()
}

// RunRequest is the body of POST /v1/run and /v1/run/stream.
type RunRequest struct {
	// Generator selects the graph model: "gnp-connected" (default) or
	// "gnp". With n, d and graph_seed it deterministically identifies the
	// instance; equal tuples share one cached graph.
	Generator string  `json:"generator,omitempty"`
	N         int     `json:"n"`
	D         float64 `json:"d"`
	GraphSeed uint64  `json:"graph_seed,omitempty"`

	// Algo selects the algorithm: "distributed" (default, the paper's
	// Theorem 7 protocol sized for d), "decay", "aloha", or "centralized"
	// (Theorem 5 schedule built with seed, then replayed).
	Algo string `json:"algo,omitempty"`

	Src       int32   `json:"src"`
	Sources   []int32 `json:"sources,omitempty"` // additional sources
	Seed      uint64  `json:"seed,omitempty"`    // protocol randomness (default 1)
	MaxRounds int     `json:"max_rounds,omitempty"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	Completed     bool    `json:"completed"`
	Rounds        int     `json:"rounds"`
	Informed      int     `json:"informed"`
	N             int     `json:"n"`
	Transmissions int     `json:"transmissions"`
	Successes     int     `json:"deliveries"`
	Collisions    int     `json:"collisions"`
	ElapsedMs     float64 `json:"elapsed_ms"`
}

type errorBody struct {
	Error string `json:"error"`
}

// validate normalises defaults and rejects malformed requests; the error
// wraps repro.ErrConflictingOptions so it maps to 400.
func (r *RunRequest) validate(cfg *Config) error {
	if r.Generator == "" {
		r.Generator = "gnp-connected"
	}
	if r.Algo == "" {
		r.Algo = "distributed"
	}
	switch r.Generator {
	case "gnp", "gnp-connected":
	default:
		return fmt.Errorf("%w: unknown generator %q", repro.ErrConflictingOptions, r.Generator)
	}
	switch r.Algo {
	case "distributed", "decay", "aloha", "centralized":
	default:
		return fmt.Errorf("%w: unknown algo %q", repro.ErrConflictingOptions, r.Algo)
	}
	if err := checkGraphSize(cfg, r.N, r.D); err != nil {
		return err
	}
	if r.MaxRounds < 0 {
		return fmt.Errorf("%w: negative max_rounds %d", repro.ErrConflictingOptions, r.MaxRounds)
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", repro.ErrConflictingOptions, r.TimeoutMs)
	}
	// Sources are checked here, not left to RunContext: the streaming
	// endpoint commits to a 200 before the run starts, so everything
	// status-worthy must fail first.
	if r.Src < 0 || int(r.Src) >= r.N {
		return fmt.Errorf("%w: src %d outside [0,%d)", repro.ErrNoSuchSource, r.Src, r.N)
	}
	for _, src := range r.Sources {
		if src < 0 || int(src) >= r.N {
			return fmt.Errorf("%w: source %d outside [0,%d)", repro.ErrNoSuchSource, src, r.N)
		}
	}
	return nil
}

// MaxExpectedEdges caps the expected edge count n·min(d, n−1)/2 of any
// graph a request can make the server sample: one /v1/run graph, or one
// trial graph of a campaign point or leased shard. At about 16 bytes per
// edge while a graph is built, the cap bounds one sample near 1 GiB. It
// is a constant, not a Config field, so no deployment can lift it by
// accident.
const MaxExpectedEdges = 1 << 26

// ErrOverBudget reports a request whose graph would exceed
// MaxExpectedEdges. The server maps it to 422: the request is well formed
// but names more graph than the server samples.
var ErrOverBudget = errors.New("serve: expected edge budget exceeded")

// checkGraphSize is the size gate every entry point applies to a
// requested G(n, d/n): n within [1, MaxN] and d non-negative (400), and
// the expected edge count within MaxExpectedEdges (422).
func checkGraphSize(cfg *Config, n int, d float64) error {
	if n < 1 || n > cfg.MaxN {
		return fmt.Errorf("%w: n %d outside [1, %d]", repro.ErrConflictingOptions, n, cfg.MaxN)
	}
	if !(d >= 0) {
		return fmt.Errorf("%w: degree %g must be non-negative", repro.ErrConflictingOptions, d)
	}
	if edges := float64(n) * math.Min(d, float64(n-1)) / 2; edges > MaxExpectedEdges {
		return fmt.Errorf("%w: n=%d d=%g expects %.3g edges, over the %d budget",
			ErrOverBudget, n, d, edges, MaxExpectedEdges)
	}
	return nil
}

// checkPoints applies checkGraphSize to every campaign point in pts.
func checkPoints(cfg *Config, pts []campaign.PointSpec) error {
	for _, p := range pts {
		if err := checkGraphSize(cfg, p.Trial.N, p.Trial.D); err != nil {
			return fmt.Errorf("point %q: %w", p.ID, err)
		}
	}
	return nil
}

func (r *RunRequest) graphKey() GraphKey {
	return GraphKey{Generator: r.Generator, N: r.N, D: r.D, Seed: r.GraphSeed}
}

// timeout returns the effective per-run deadline. A request's timeout_ms
// is clamped in milliseconds: converted first, a huge value would
// overflow time.Duration and wrap negative.
func (r *RunRequest) timeout(cfg *Config) time.Duration {
	t := cfg.DefaultTimeout
	if r.TimeoutMs > 0 {
		t = cfg.MaxTimeout
		if int64(r.TimeoutMs) < cfg.MaxTimeout.Milliseconds() {
			t = time.Duration(r.TimeoutMs) * time.Millisecond
		}
	}
	return min(t, cfg.MaxTimeout)
}

// options assembles the repro.Run options for the request on g. The
// centralized path builds the Theorem 5 schedule here, so schedule
// construction failures surface as ErrScheduleMismatch before any rounds
// execute.
func (r *RunRequest) options(g *repro.Graph) ([]repro.Option, error) {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	var opts []repro.Option
	switch r.Algo {
	case "distributed":
		opts = append(opts, repro.WithDegree(r.D), repro.WithSeed(seed))
	case "decay":
		opts = append(opts, repro.WithProtocol(protocols.NewDecay(r.N)), repro.WithSeed(seed))
	case "aloha":
		opts = append(opts, repro.WithProtocol(protocols.NewAloha(r.D)), repro.WithSeed(seed))
	case "centralized":
		sched, err := repro.BuildSchedule(g, r.Src, r.D, seed)
		if err != nil {
			return nil, err
		}
		opts = append(opts, repro.WithSchedule(sched))
	}
	if r.MaxRounds > 0 && r.Algo != "centralized" {
		opts = append(opts, repro.WithMaxRounds(r.MaxRounds))
	}
	if len(r.Sources) > 0 {
		opts = append(opts, repro.WithSources(r.Sources...))
	}
	return opts, nil
}

// simulation is one prepared run: the cached graph, the assembled
// options and a pooled engine to run on.
// prepare does everything that can fail with a status code; run executes
// and returns the engine to the pool. Both endpoints funnel through this
// pair, which also makes the simulation path testable without HTTP.
type simulation struct {
	s      *Server
	req    *RunRequest
	g      *repro.Graph
	key    GraphKey
	opts   []repro.Option
	engine *repro.Engine
}

// prepare resolves the request's graph (through the LRU) and options,
// and checks an engine out of the per-graph pool — protocol runs and
// centralized schedule replays alike.
func (s *Server) prepare(req *RunRequest) (*simulation, error) {
	key := req.graphKey()
	g, err := s.cache.Get(key)
	if err != nil {
		return nil, err
	}
	opts, err := req.options(g)
	if err != nil {
		return nil, err
	}
	sim := &simulation{s: s, req: req, g: g, key: key, opts: opts, engine: exec.AcquireEngine(g)}
	sim.opts = append(sim.opts, repro.WithEngine(sim.engine))
	return sim, nil
}

// run executes the prepared simulation and returns its engine to the
// pool — detached from any observer first, so a pooled engine never
// retains a dead request's response writer.
func (sim *simulation) run(ctx context.Context, extra ...repro.Option) (repro.Result, error) {
	opts := append(sim.opts, extra...)
	res, err := repro.RunContext(ctx, sim.g, sim.req.Src, opts...)
	if sim.engine != nil {
		sim.engine.Attach(nil)
		exec.ReleaseEngine(sim.engine)
		sim.engine = nil
	}
	return res, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req RunRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		s.metrics.observe("run", time.Since(start), true)
		return
	}
	if err := req.validate(&s.cfg); err != nil {
		s.writeError(w, err)
		s.metrics.observe("run", time.Since(start), true)
		return
	}
	var resp RunResponse
	err := s.pool.Do(r.Context(), func(ctx context.Context) error {
		ctx, cancel := context.WithTimeout(ctx, req.timeout(&s.cfg))
		defer cancel()
		sim, err := s.prepare(&req)
		if err != nil {
			return err
		}
		res, err := sim.run(ctx)
		if err != nil {
			return err
		}
		resp = runResponse(res, time.Since(start))
		return nil
	})
	if err != nil {
		s.writeError(w, err)
		s.metrics.observe("run", time.Since(start), true)
		return
	}
	writeJSON(w, http.StatusOK, resp)
	s.metrics.observe("run", time.Since(start), false)
}

// handleRunStream streams the run as JSON Lines: one "begin" record, one
// record per round (flushed as it happens), one "end" record, then a
// final "result" trailer carrying the outcome — or the error, when the
// run failed after streaming began (headers are gone by then, so the
// trailer is the error channel).
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req RunRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		s.metrics.observe("stream", time.Since(start), true)
		return
	}
	if err := req.validate(&s.cfg); err != nil {
		s.writeError(w, err)
		s.metrics.observe("stream", time.Since(start), true)
		return
	}
	streaming := false
	err := s.pool.Do(r.Context(), func(ctx context.Context) error {
		ctx, cancel := context.WithTimeout(ctx, req.timeout(&s.cfg))
		defer cancel()
		sim, err := s.prepare(&req)
		if err != nil {
			return err
		}
		// Everything that can fail with a status code has succeeded;
		// switch to the stream.
		streaming = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		jw := repro.NewJSONLWriter(w)
		obs := &flushingObserver{jw: jw, flusher: flusher}
		res, runErr := sim.run(ctx, repro.WithObserver(obs))
		trailer := streamTrailer{Type: "result", Result: runResponse(res, time.Since(start))}
		if runErr != nil {
			trailer.Error = runErr.Error()
		}
		jw.Flush()
		if b, err := json.Marshal(trailer); err == nil {
			w.Write(append(b, '\n'))
		}
		if flusher != nil {
			flusher.Flush()
		}
		return runErr
	})
	if err != nil && !streaming {
		s.writeError(w, err)
		s.metrics.observe("stream", time.Since(start), true)
		return
	}
	s.metrics.observe("stream", time.Since(start), err != nil)
}

// streamTrailer is the final line of a streamed run.
type streamTrailer struct {
	Type   string      `json:"type"`
	Result RunResponse `json:"result"`
	Error  string      `json:"error,omitempty"`
}

// flushingObserver forwards to a JSONLWriter and flushes every record to
// the client as it is produced — the point of the streaming endpoint.
type flushingObserver struct {
	jw      *repro.JSONLWriter
	flusher http.Flusher
}

func (f *flushingObserver) BeginRun(info repro.RunInfo) {
	f.jw.BeginRun(info)
	f.flush()
}

func (f *flushingObserver) Round(rec repro.RoundRecord) {
	f.jw.Round(rec)
	f.flush()
}

func (f *flushingObserver) EndRun(sum repro.RunSummary) {
	f.jw.EndRun(sum)
	f.flush()
}

func (f *flushingObserver) flush() {
	f.jw.Flush()
	if f.flusher != nil {
		f.flusher.Flush()
	}
}

// maxFinishedCampaigns caps how many finished campaigns (done, failed or
// canceled) the registry keeps for status polls. Past it the campaign that
// finished first is forgotten and its id answers 404. Queued and running
// campaigns are never evicted; maxActiveCampaigns bounds them instead.
const maxFinishedCampaigns = 256

// maxActiveCampaigns caps the campaigns queued or running at once. Each
// one holds a goroutine and its spec until it finishes, so past the cap a
// submission is refused with ErrBusy (429) instead of parking another.
const maxActiveCampaigns = 64

// campaignJob tracks one submitted campaign through its lifecycle.
type campaignJob struct {
	mu     sync.Mutex
	id     string
	state  string // "queued" | "running" | "done" | "failed" | "canceled"
	errMsg string
	report *campaign.Report
}

// CampaignStatus is the body of GET /v1/campaign/{id}.
type CampaignStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Error  string           `json:"error,omitempty"`
	Report *campaign.Report `json:"report,omitempty"`
}

func (j *campaignJob) status() CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return CampaignStatus{ID: j.id, State: j.state, Error: j.errMsg, Report: j.report}
}

func (j *campaignJob) set(state, errMsg string, report *campaign.Report) {
	j.mu.Lock()
	j.state, j.errMsg, j.report = state, errMsg, report
	j.mu.Unlock()
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: reading body: %v", repro.ErrConflictingOptions, err))
		return
	}
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		return
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		return
	}
	if err := checkPoints(&s.cfg, spec.Points); err != nil {
		s.writeError(w, err)
		return
	}
	if s.campaignCtx.Err() != nil {
		s.writeError(w, ErrClosed)
		return
	}

	s.mu.Lock()
	if s.active >= maxActiveCampaigns {
		s.mu.Unlock()
		s.writeError(w, fmt.Errorf("%w: %d campaigns queued or running", ErrBusy, maxActiveCampaigns))
		return
	}
	s.active++
	s.nextID++
	id := fmt.Sprintf("c%04d-%s", s.nextID, spec.Hash()[:8])
	job := &campaignJob{id: id, state: "queued"}
	s.campaigns[id] = job
	s.mu.Unlock()

	s.campaignWG.Add(1)
	go func() {
		defer s.campaignWG.Done()
		select {
		case s.campaignSem <- struct{}{}:
			defer func() { <-s.campaignSem }()
		case <-s.campaignCtx.Done():
			s.finish(job, "canceled", "server shutting down", nil)
			return
		}
		job.set("running", "", nil)
		report, err := campaign.Run(spec, campaign.Options{Context: s.campaignCtx})
		switch {
		case err != nil:
			s.finish(job, "failed", err.Error(), nil)
		case s.campaignCtx.Err() != nil && !report.Complete:
			s.finish(job, "canceled", "server shutting down", report)
		default:
			s.finish(job, "done", "", report)
		}
	}()

	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":         id,
		"state":      "queued",
		"status_url": "/v1/campaign/" + id,
	})
}

// finish moves job to a terminal state, frees its active slot and evicts
// the oldest finished campaigns beyond maxFinishedCampaigns. The state
// changes under s.mu, so a poller that sees it can submit into the slot.
func (s *Server) finish(job *campaignJob, state, errMsg string, report *campaign.Report) {
	s.mu.Lock()
	job.set(state, errMsg, report)
	s.active--
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxFinishedCampaigns {
		delete(s.campaigns, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such campaign " + id})
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics is the body of GET /metrics: a JSON snapshot of the pool, the
// graph cache, the execution layer's per-backend counters (shared by
// every layer in the process — request runs, campaigns and cluster
// shards all dispatch through the same executor), per-endpoint latency
// counters and campaign states.
type Metrics struct {
	Pool      PoolStats                `json:"pool"`
	Cache     CacheStats               `json:"cache"`
	Exec      exec.Stats               `json:"exec"`
	Requests  map[string]EndpointStats `json:"requests"`
	Campaigns map[string]int           `json:"campaigns"`
	Shards    ShardStats               `json:"shards"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[string]int{}
	s.mu.Lock()
	for _, j := range s.campaigns {
		states[j.status().State]++
	}
	shards := s.shardStats
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Metrics{
		Pool:      s.pool.Stats(),
		Cache:     s.cache.Stats(),
		Exec:      exec.Snapshot(),
		Requests:  s.metrics.snapshot(),
		Campaigns: states,
		Shards:    shards,
	})
}

// writeError maps an error onto its status code via the sentinel chain
// and writes the JSON error body. 429 carries the Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// statusFor classifies err by the repro/serve sentinels. Order matters:
// a deadline-canceled run wraps both ErrCanceled and DeadlineExceeded
// and must report 504, not 503.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, repro.ErrConflictingOptions), errors.Is(err, repro.ErrNoSuchSource):
		return http.StatusBadRequest
	case errors.Is(err, repro.ErrScheduleMismatch), errors.Is(err, ErrGraphUnavailable), errors.Is(err, ErrOverBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, repro.ErrCanceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func runResponse(res repro.Result, elapsed time.Duration) RunResponse {
	return RunResponse{
		Completed:     res.Completed,
		Rounds:        res.Rounds,
		Informed:      res.Informed,
		N:             res.N,
		Transmissions: res.Stats.Transmissions,
		Successes:     res.Stats.Successes,
		Collisions:    res.Stats.Collisions,
		ElapsedMs:     float64(elapsed.Microseconds()) / 1000,
	}
}

func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// metrics tracks per-endpoint request counts and latencies.
type metrics struct {
	mu sync.Mutex
	m  map[string]*EndpointStats
}

// EndpointStats are cumulative per-endpoint counters.
type EndpointStats struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"`
	TotalMs float64 `json:"total_ms"`
	MaxMs   float64 `json:"max_ms"`
}

func (m *metrics) observe(endpoint string, d time.Duration, failed bool) {
	ms := float64(d.Microseconds()) / 1000
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[string]*EndpointStats)
	}
	st := m.m[endpoint]
	if st == nil {
		st = &EndpointStats{}
		m.m[endpoint] = st
	}
	st.Count++
	if failed {
		st.Errors++
	}
	st.TotalMs += ms
	if ms > st.MaxMs {
		st.MaxMs = ms
	}
}

func (m *metrics) snapshot() map[string]EndpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointStats, len(m.m))
	for k, v := range m.m {
		out[k] = *v
	}
	return out
}

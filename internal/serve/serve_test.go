package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(2 * time.Second)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRunEndpoint: the happy path returns a completed simulation with
// plausible statistics.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 500, D: 10, GraphSeed: 1, Seed: 7})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	out := decodeBody[RunResponse](t, resp)
	if !out.Completed || out.Informed != 500 || out.Rounds < 1 {
		t.Fatalf("implausible result %+v", out)
	}
}

// TestRunEndpointAlgos: every algorithm the API exposes runs end to end.
func TestRunEndpointAlgos(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"distributed", "decay", "aloha", "centralized"} {
		resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 300, D: 10, GraphSeed: 1, Algo: algo})
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("algo %s: status %d: %s", algo, resp.StatusCode, b)
		}
		out := decodeBody[RunResponse](t, resp)
		if !out.Completed {
			t.Fatalf("algo %s did not complete: %+v", algo, out)
		}
	}
}

// runStatusCases are requests whose status is fixed by the error
// sentinels (and one by the timeout cap).
var runStatusCases = []struct {
	name string
	req  RunRequest
	want int
}{
	{"bad generator", RunRequest{Generator: "petersen", N: 100, D: 8}, http.StatusBadRequest},
	{"bad algo", RunRequest{N: 100, D: 8, Algo: "psychic"}, http.StatusBadRequest},
	{"zero n", RunRequest{N: 0, D: 8}, http.StatusBadRequest},
	{"bad source", RunRequest{N: 100, D: 8, Src: 100}, http.StatusBadRequest},
	{"bad extra source", RunRequest{N: 100, D: 8, Sources: []int32{512}}, http.StatusBadRequest},
	{"no connected sample", RunRequest{N: 200, D: 0.1, GraphSeed: 1}, http.StatusUnprocessableEntity},
	{"deadline", RunRequest{Generator: "gnp", N: 400, D: 0.5, MaxRounds: 2_000_000_000, TimeoutMs: 30}, http.StatusGatewayTimeout},
	// Capped at MaxTimeout, not wrapped negative into an expired deadline.
	{"overflowing timeout", RunRequest{N: 100, D: 8, TimeoutMs: 9_300_000_000_000}, http.StatusOK},
}

// TestRunEndpointErrors: each failure class maps to its documented
// status code through the error sentinels.
func TestRunEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range runStatusCases {
		resp := postJSON(t, ts.URL+"/v1/run", tc.req)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, b)
		}
	}
	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestRunEndpointCacheHit: two requests for the same (generator, n, d,
// graph_seed) build the graph once; /metrics proves it via the hit
// counter — the acceptance criterion for skip-rebuild.
func TestRunEndpointCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := RunRequest{N: 400, D: 10, GraphSeed: 5}
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeBody[Metrics](t, resp)
	if m.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one build for three identical requests)", m.Cache.Misses)
	}
	if m.Cache.Hits != 2 {
		t.Fatalf("cache hits = %d, want 2", m.Cache.Hits)
	}
	if m.Requests["run"].Count != 3 {
		t.Fatalf("run counter = %d, want 3", m.Requests["run"].Count)
	}
}

// TestRunConcurrentSameGraphBuildsOnce: N concurrent requests for one
// instance trigger exactly one generation (singleflight through the
// serving stack, not just the cache unit). Run with -race.
func TestRunConcurrentSameGraphBuildsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueCap: 32})
	const callers = 12
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct protocol seeds, same graph key.
			resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 600, D: 10, GraphSeed: 9, Seed: uint64(i + 1)})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 build for %d concurrent requests", st.Misses, callers)
	}
}

// TestRunBackpressure429: a burst beyond workers+queue gets 429 with a
// Retry-After hint instead of queueing unboundedly.
func TestRunBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	// Saturate the worker and queue slot with runs that spin until their
	// deadline: a sparse disconnected G(n,p) never completes, and the
	// huge round budget means only the timeout ends them.
	slow := RunRequest{Generator: "gnp", N: 400, D: 0.5, MaxRounds: 2_000_000_000, TimeoutMs: 3_000}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/run", slow)
			resp.Body.Close()
			<-release
		}()
	}
	// Wait until both slow requests are admitted (running + queued).
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		m := decodeBody[Metrics](t, resp)
		if m.Pool.Running+int64(m.Pool.Queued) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("slow requests never saturated the pool")
		case <-time.After(5 * time.Millisecond):
		}
	}
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 100, D: 8})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturating burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	close(release)
	wg.Wait()
}

// TestStreamEndpoint: the JSONL stream carries begin/round/end records
// and a final result trailer that matches the blocking endpoint's shape.
func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run/stream", RunRequest{N: 400, D: 10, GraphSeed: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	var trailer streamTrailer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", sc.Text(), err)
		}
		types = append(types, rec.Type)
		if rec.Type == "result" {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 4 || types[0] != "begin" || types[len(types)-2] != "end" || types[len(types)-1] != "result" {
		t.Fatalf("stream shape %v, want begin, rounds..., end, result", types)
	}
	for _, typ := range types[1 : len(types)-2] {
		if typ != "round" {
			t.Fatalf("unexpected record type %q mid-stream", typ)
		}
	}
	if !trailer.Result.Completed || trailer.Result.Rounds != len(types)-3 {
		t.Fatalf("trailer %+v inconsistent with %d round records", trailer.Result, len(types)-3)
	}
	if trailer.Error != "" {
		t.Fatalf("unexpected trailer error %q", trailer.Error)
	}
}

// TestStreamEndpointValidationStatus: failures detected before streaming
// begins still produce proper status codes.
func TestStreamEndpointValidationStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/run/stream", RunRequest{N: 100, D: 8, Src: -2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestStreamMidStreamCancel: a client dropping mid-stream cancels the
// run through its context; the server keeps serving afterwards.
func TestStreamMidStreamCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(RunRequest{Generator: "gnp", N: 400, D: 0.5, MaxRounds: 2_000_000_000, TimeoutMs: 30_000})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line to ensure the stream started, then hang up.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream produced no output: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	// The server must still answer promptly (the canceled run freed its
	// worker; with 2 default workers a stuck one would still leave one,
	// so check the metrics instead: the stream request completed).
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		m := decodeBody[Metrics](t, resp)
		if m.Pool.Running == 0 && m.Requests["stream"].Count == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("canceled stream run never released its worker: %+v", m.Pool)
		case <-time.After(5 * time.Millisecond):
		}
	}
	resp2 := postJSON(t, ts.URL+"/v1/run", RunRequest{N: 100, D: 8})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after canceled stream: status %d", resp2.StatusCode)
	}
}

// TestCampaignEndpoint: submit a small campaign, poll to completion, and
// check the report came through.
func TestCampaignEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := map[string]any{
		"name":   "serve-test",
		"seed":   11,
		"trials": 3,
		"points": []map[string]any{
			{"id": "a", "x": 8, "trial": map[string]any{"kind": "distributed", "n": 60, "d": 8}},
		},
	}
	resp := postJSON(t, ts.URL+"/v1/campaign", spec)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	sub := decodeBody[map[string]string](t, resp)
	if sub["id"] == "" || sub["status_url"] == "" {
		t.Fatalf("submit response %v lacks id/status_url", sub)
	}

	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + sub["status_url"])
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint returned %d", resp.StatusCode)
		}
		st := decodeBody[CampaignStatus](t, resp)
		switch st.State {
		case "done":
			if st.Report == nil || !st.Report.Complete {
				t.Fatalf("done campaign without complete report: %+v", st)
			}
			if len(st.Report.Points) != 1 || st.Report.Points[0].Consumed != 3 {
				t.Fatalf("unexpected report %+v", st.Report)
			}
			return
		case "failed", "canceled":
			t.Fatalf("campaign ended in state %s: %s", st.State, st.Error)
		}
		select {
		case <-deadline:
			t.Fatal("campaign never finished")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCampaignEndpointRejectsBadSpec: unparsable and invalid specs are
// 400s; unknown ids are 404s.
func TestCampaignEndpointRejectsBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/campaign/c9999-missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestCampaignRegistryEvictsFinished: past maxFinishedCampaigns finished
// campaigns, the ones that finished first answer 404, while every later
// one and a campaign still in flight keep answering 200.
func TestCampaignRegistryEvictsFinished(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A job in flight, registered the way handleCampaignSubmit does; it
	// never finishes, so no eviction may touch it.
	s.mu.Lock()
	s.campaigns["c0000-inflight"] = &campaignJob{id: "c0000-inflight", state: "running"}
	s.mu.Unlock()
	spec := map[string]any{
		"name":   "evict",
		"seed":   1,
		"trials": 1,
		"points": []map[string]any{
			{"id": "a", "x": 6, "trial": map[string]any{"kind": "distributed", "n": 30, "d": 6}},
		},
	}
	get := func(id string) (int, CampaignStatus) {
		resp, err := http.Get(ts.URL + "/v1/campaign/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return resp.StatusCode, CampaignStatus{}
		}
		return resp.StatusCode, decodeBody[CampaignStatus](t, resp)
	}
	// Submit one at a time and wait for each to finish, so finishing
	// order is submission order.
	const evicted = 3
	var ids []string
	for i := 0; i < maxFinishedCampaigns+evicted; i++ {
		resp := postJSON(t, ts.URL+"/v1/campaign", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		id := decodeBody[map[string]string](t, resp)["id"]
		ids = append(ids, id)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			code, st := get(id)
			if code != http.StatusOK {
				t.Fatalf("campaign %s: status %d while in flight", id, code)
			}
			if st.State == "done" {
				break
			}
			if (st.State != "queued" && st.State != "running") || time.Now().After(deadline) {
				t.Fatalf("campaign %s: state %s %s", id, st.State, st.Error)
			}
		}
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < evicted {
			want = http.StatusNotFound
		}
		if code, _ := get(id); code != want {
			t.Fatalf("campaign %d (%s): status %d, want %d", i, id, code, want)
		}
	}
	if code, st := get("c0000-inflight"); code != http.StatusOK || st.State != "running" {
		t.Fatalf("in-flight campaign: status %d state %q, want 200 running", code, st.State)
	}
}

// TestHealthz is trivial but keeps the probe honest.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestShutdownDrainsAndCancels: shutdown lets short queued work finish
// and cancels work that outlives the grace via context — the in-flight
// long run comes back 503/504, not a hang.
func TestShutdownDrainsAndCancels(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := RunRequest{Generator: "gnp", N: 400, D: 0.5, MaxRounds: 2_000_000_000, TimeoutMs: 60_000}
	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(slow)
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(b))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	// Wait for the long run to occupy the worker.
	deadline := time.After(10 * time.Second)
	for s.pool.Stats().Running == 0 {
		select {
		case <-deadline:
			t.Fatal("slow run never started")
		case <-time.After(2 * time.Millisecond):
		}
	}

	done := make(chan struct{})
	go func() {
		s.Shutdown(50 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung")
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight request failed at transport level: %v", r.err)
	}
	if r.code != http.StatusServiceUnavailable && r.code != http.StatusGatewayTimeout {
		t.Fatalf("canceled in-flight run: status %d, want 503/504", r.code)
	}
}

// blockRelease lets exactly one "test-block" trial finish per token; every
// other one waits until its campaign is canceled.
var blockRelease = make(chan struct{}, 1)

func init() {
	campaign.RegisterKind("test-block", func(campaign.PointSpec, uint64, bool) (campaign.Runner, error) {
		return blockRunner{}, nil
	})
}

type blockRunner struct{}

func (blockRunner) RunTrials(ctx context.Context, seeds []uint64, values []float64, oks []bool) error {
	select {
	case <-blockRelease:
		for i := range seeds {
			values[i], oks[i] = 1, true
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestCampaignQueueBounded: with maxActiveCampaigns campaigns queued or
// running, the next submission is refused with 429 and a Retry-After
// hint, and a slot opens again as soon as one of them finishes.
func TestCampaignQueueBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{CampaignWorkers: 1})
	spec := map[string]any{
		"name":   "blocked",
		"seed":   1,
		"trials": 1,
		"points": []map[string]any{
			{"id": "a", "x": 1, "trial": map[string]any{"kind": "test-block", "n": 10, "d": 2}},
		},
	}
	submit := func() string {
		resp := postJSON(t, ts.URL+"/v1/campaign", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return decodeBody[map[string]string](t, resp)["id"]
	}
	waitState := func(id, want string) {
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			resp, err := http.Get(ts.URL + "/v1/campaign/" + id)
			if err != nil {
				t.Fatal(err)
			}
			st := decodeBody[CampaignStatus](t, resp)
			if st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s never reached %s: state %s %s", id, want, st.State, st.Error)
			}
		}
	}
	// The first campaign takes the only worker slot before the rest are
	// queued, so it is the one the release token below reaches.
	first := submit()
	waitState(first, "running")
	for i := 1; i < maxActiveCampaigns; i++ {
		submit()
	}
	resp := postJSON(t, ts.URL+"/v1/campaign", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit past the cap: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	blockRelease <- struct{}{}
	waitState(first, "done")
	resp = postJSON(t, ts.URL+"/v1/campaign", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after a campaign finished: status %d", resp.StatusCode)
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
)

// fakeCoordinator is the coordinator half of the lease protocol reduced
// to a recorder: it acks every heartbeat (or answers 410 when gone is
// set) and collects every posted result.
type fakeCoordinator struct {
	ts   *httptest.Server
	mu   sync.Mutex
	hbs  int
	gone bool

	results chan cluster.ShardResult
}

func newFakeCoordinator(t *testing.T) *fakeCoordinator {
	t.Helper()
	fc := &fakeCoordinator{results: make(chan cluster.ShardResult, 4)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		fc.mu.Lock()
		fc.hbs++
		gone := fc.gone
		fc.mu.Unlock()
		if gone {
			w.WriteHeader(http.StatusGone)
			return
		}
		writeJSON(w, http.StatusOK, cluster.HeartbeatAck{LeaseID: r.PathValue("id"), TTLMs: 300})
	})
	mux.HandleFunc("POST /v1/shard/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		var res cluster.ShardResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			t.Errorf("fake coordinator: bad result body: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		fc.results <- res
		writeJSON(w, http.StatusOK, map[string]string{"state": "completed"})
	})
	fc.ts = httptest.NewServer(mux)
	t.Cleanup(fc.ts.Close)
	return fc
}

func (fc *fakeCoordinator) heartbeats() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.hbs
}

func (fc *fakeCoordinator) setGone() {
	fc.mu.Lock()
	fc.gone = true
	fc.mu.Unlock()
}

// shardSpec is a one-point campaign cheap enough for the lease tests.
func shardSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:   "shard-test",
		Seed:   11,
		Trials: 3,
		Points: []campaign.PointSpec{
			{ID: "a", X: 60, Trial: campaign.TrialSpec{Kind: "distributed", N: 60, D: 8}},
		},
	}
}

func offerFor(spec *campaign.Spec, coordinator string, ttlMs int) cluster.LeaseOffer {
	return cluster.LeaseOffer{
		LeaseID:     "l00001",
		ShardID:     "s000",
		PointLo:     0,
		PointHi:     len(spec.Points),
		Spec:        spec,
		SpecHash:    spec.Hash(),
		TTLMs:       ttlMs,
		Coordinator: coordinator,
		Worker:      "http://worker-under-test",
	}
}

// TestShardLeaseHappyPath: an admitted offer runs the shard, heartbeats
// the lease while it runs, and delivers the complete sample range sorted
// in grid order; /metrics records the completion.
func TestShardLeaseHappyPath(t *testing.T) {
	fc := newFakeCoordinator(t)
	_, ts := newTestServer(t, Config{ShardWorkers: 1, ShardStartDelay: 150 * time.Millisecond})
	spec := shardSpec()

	resp := postJSON(t, ts.URL+"/v1/shard/lease", offerFor(spec, fc.ts.URL, 120))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease offer: status %d", resp.StatusCode)
	}
	ack := decodeBody[cluster.LeaseAck](t, resp)
	if ack.State != "accepted" || ack.LeaseID != "l00001" {
		t.Fatalf("unexpected ack %+v", ack)
	}

	var res cluster.ShardResult
	select {
	case res = <-fc.results:
	case <-time.After(30 * time.Second):
		t.Fatal("no shard result delivered")
	}
	if res.Error != "" || res.LeaseID != "l00001" || res.ShardID != "s000" {
		t.Fatalf("unexpected result header %+v", res)
	}
	set := campaign.NewSampleSet(spec)
	for i, s := range res.Samples {
		if i > 0 && !(res.Samples[i-1].Point < s.Point ||
			(res.Samples[i-1].Point == s.Point && res.Samples[i-1].Trial < s.Trial)) {
			t.Fatalf("samples not in grid order at %d: %+v after %+v", i, s, res.Samples[i-1])
		}
		if _, err := set.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if !set.RangeComplete(0, len(spec.Points)) {
		t.Fatalf("result with %d samples does not complete the leased range", len(res.Samples))
	}
	// The start delay (150ms) spans at least one heartbeat interval
	// (TTL 120ms / 3 = 40ms), so the lease was provably kept alive
	// before any trial ran.
	if fc.heartbeats() == 0 {
		t.Error("shard completed without a single heartbeat")
	}

	// The result reaches the fake coordinator a beat before the worker's
	// own bookkeeping settles; poll briefly.
	m := awaitShardMetrics(t, ts.URL, func(st ShardStats) bool {
		return st.Completed == 1 && st.Active == 0
	})
	if m.Shards.Accepted != 1 || m.Shards.Completed != 1 || m.Shards.Rejected != 0 {
		t.Errorf("shard metrics %+v, want accepted=1 completed=1", m.Shards)
	}
}

// awaitShardMetrics polls /metrics until the shard counters satisfy ok.
func awaitShardMetrics(t *testing.T, base string, ok func(ShardStats) bool) Metrics {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		m := decodeBody[Metrics](t, resp)
		if ok(m.Shards) {
			return m
		}
		select {
		case <-deadline:
			t.Fatalf("shard metrics never settled: %+v", m.Shards)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestShardLeaseBackpressure: with every shard slot busy, a lease offer
// is answered 429 + Retry-After — the signal the coordinator turns into
// backoff + re-offer — and the rejection is counted in /metrics.
func TestShardLeaseBackpressure(t *testing.T) {
	fc := newFakeCoordinator(t)
	_, ts := newTestServer(t, Config{ShardWorkers: 1, ShardStartDelay: 400 * time.Millisecond})
	spec := shardSpec()

	first := postJSON(t, ts.URL+"/v1/shard/lease", offerFor(spec, fc.ts.URL, 5000))
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first offer: status %d", first.StatusCode)
	}
	second := offerFor(spec, fc.ts.URL, 5000)
	second.LeaseID = "l00002"
	resp := postJSON(t, ts.URL+"/v1/shard/lease", second)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("offer into a full worker: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 carries Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	select {
	case <-fc.results:
	case <-time.After(30 * time.Second):
		t.Fatal("admitted shard never completed")
	}
	m := awaitShardMetrics(t, ts.URL, func(st ShardStats) bool { return st.Completed == 1 })
	if m.Shards.Accepted != 1 || m.Shards.Rejected != 1 {
		t.Errorf("shard metrics %+v, want accepted=1 rejected=1", m.Shards)
	}
}

// TestShardLeaseAbandonsOnGone: a 410 heartbeat answer means the lease
// was reassigned; the worker cancels the run and posts nothing.
func TestShardLeaseAbandonsOnGone(t *testing.T) {
	fc := newFakeCoordinator(t)
	s, ts := newTestServer(t, Config{ShardWorkers: 1, ShardStartDelay: 5 * time.Second})
	spec := shardSpec()

	resp := postJSON(t, ts.URL+"/v1/shard/lease", offerFor(spec, fc.ts.URL, 90))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offer: status %d", resp.StatusCode)
	}
	fc.setGone() // every heartbeat from now on → 410

	deadline := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		st := s.shardStats
		s.mu.Unlock()
		if st.Abandoned == 1 && st.Active == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("shard never abandoned after 410: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
	select {
	case res := <-fc.results:
		t.Fatalf("abandoned shard posted a result: %+v", res)
	default:
	}
}

// malformedOffers breaks a valid offer in each way validateOffer rejects.
var malformedOffers = map[string]func(*cluster.LeaseOffer){
	"no lease id":      func(o *cluster.LeaseOffer) { o.LeaseID = "" },
	"no coordinator":   func(o *cluster.LeaseOffer) { o.Coordinator = "" },
	"no spec":          func(o *cluster.LeaseOffer) { o.Spec = nil },
	"hash mismatch":    func(o *cluster.LeaseOffer) { o.SpecHash = "deadbeef" },
	"inverted range":   func(o *cluster.LeaseOffer) { o.PointLo, o.PointHi = 1, 0 },
	"range off grid":   func(o *cluster.LeaseOffer) { o.PointHi = 99 },
	"non-positive ttl": func(o *cluster.LeaseOffer) { o.TTLMs = 0 },
	"overflowing ttl":  func(o *cluster.LeaseOffer) { o.TTLMs = 9_300_000_000_000 },
}

// TestShardLeaseRejectsMalformedOffers: structural problems are 400s,
// before any slot is charged.
func TestShardLeaseRejectsMalformedOffers(t *testing.T) {
	fc := newFakeCoordinator(t)
	_, ts := newTestServer(t, Config{ShardWorkers: 1})
	spec := shardSpec()

	for name, mutate := range malformedOffers {
		offer := offerFor(spec, fc.ts.URL, 1000)
		mutate(&offer)
		resp := postJSON(t, ts.URL+"/v1/shard/lease", offer)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// Package cluster_test integrates the coordinator with real serve
// workers in-process: the same lease/heartbeat/result protocol the
// binaries speak, minus the processes. (External test package: serve
// imports cluster, so these tests cannot live inside package cluster.)
package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// testSpec is a two-point campaign small enough for protocol tests but
// large enough to exercise multi-shard scheduling.
func testSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:   "cluster-test",
		Seed:   19,
		Trials: 3,
		Points: []campaign.PointSpec{
			{ID: "n60", X: 60, Trial: campaign.TrialSpec{Kind: "distributed", N: 60, D: 8}},
			{ID: "n80", X: 80, Trial: campaign.TrialSpec{Kind: "distributed", N: 80, D: 8}},
		},
	}
}

// newWorker boots an in-process serve worker and returns its base URL.
func newWorker(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(2 * time.Second)
	})
	return ts.URL
}

// newCoordinator builds a coordinator with its handler served, solving
// the listener-before-handler chicken-and-egg with a late-bound mux.
func newCoordinator(t *testing.T, spec *campaign.Spec, cfg cluster.Config) *cluster.Coordinator {
	t.Helper()
	var mu sync.Mutex
	var h http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		handler := h
		mu.Unlock()
		if handler == nil {
			http.Error(w, "coordinator not ready", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	cfg.Advertise = ts.URL
	c, err := cluster.NewCoordinator(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	h = c.Handler()
	mu.Unlock()
	return c
}

func reportJSON(t *testing.T, r *campaign.Report) string {
	t.Helper()
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runMatchesLocal runs coord within timeout and checks that it completes
// with the report of a local campaign.Run of spec.
func runMatchesLocal(t *testing.T, coord *cluster.Coordinator, spec *campaign.Spec, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	clustered, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !clustered.Complete {
		t.Fatalf("clustered report incomplete (counters %+v)", coord.Status().Counters)
	}
	local, err := campaign.Run(spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, clustered), reportJSON(t, local); got != want {
		t.Errorf("clustered report differs from local run:\n%s\nvs\n%s", got, want)
	}
}

// TestPlan: the grid slices into consecutive, covering, deterministic
// shards.
func TestPlan(t *testing.T) {
	spec := testSpec()
	shards := cluster.Plan(spec, 0)
	if len(shards) != 2 {
		t.Fatalf("Plan with 1 point/shard: %d shards, want 2", len(shards))
	}
	for i, s := range shards {
		if s.Lo != i || s.Hi != i+1 {
			t.Errorf("shard %d covers [%d,%d), want [%d,%d)", i, s.Lo, s.Hi, i, i+1)
		}
	}
	if shards[0].ID == shards[1].ID {
		t.Error("shard IDs collide")
	}
	coarse := cluster.Plan(spec, 5)
	if len(coarse) != 1 || coarse[0].Lo != 0 || coarse[0].Hi != 2 {
		t.Errorf("Plan with oversize shards: %+v, want one shard covering the grid", coarse)
	}
}

// TestClusterMatchesLocalRun: the tentpole guarantee — a distributed
// campaign over two workers produces a report byte-identical to a
// single-machine campaign.Run of the same spec.
func TestClusterMatchesLocalRun(t *testing.T) {
	spec := testSpec()
	w1 := newWorker(t, serve.Config{ShardWorkers: 1})
	w2 := newWorker(t, serve.Config{ShardWorkers: 1})
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{w1, w2},
		LeaseTTL: 2 * time.Second,
	})
	runMatchesLocal(t, coord, spec, 60*time.Second)
	st := coord.Status()
	if st.Counters.LeasesGranted != 2 || st.Counters.ShardsCompleted != 2 {
		t.Errorf("counters %+v, want 2 granted / 2 completed", st.Counters)
	}
	for _, sh := range st.Shards {
		if sh.State != cluster.ShardCompleted {
			t.Errorf("shard %s ended in state %s", sh.ID, sh.State)
		}
	}
}

// blackholeWorker accepts its first lease offer and then goes silent: no
// heartbeats, no result — the crashed-worker shape. Later offers are
// answered 429 so the coordinator routes around it.
func blackholeWorker(t *testing.T) string {
	t.Helper()
	var mu sync.Mutex
	taken := false
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !taken
		taken = true
		mu.Unlock()
		if !first {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"accepted"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestClusterReassignsExpiredLease: a lease swallowed by a dead worker
// expires and its shard is reassigned; the final report is still
// byte-identical to the local run — the kill-mid-shard guarantee, with
// the kill simulated by a worker that never progresses.
func TestClusterReassignsExpiredLease(t *testing.T) {
	spec := testSpec()
	dead := blackholeWorker(t)
	live := newWorker(t, serve.Config{ShardWorkers: 2})
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{dead, live},
		LeaseTTL: 250 * time.Millisecond,
		Backoff:  50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	clustered, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := campaign.Run(spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, clustered), reportJSON(t, local); got != want {
		t.Errorf("report after lease reassignment differs from local run:\n%s\nvs\n%s", got, want)
	}
	st := coord.Status()
	if st.Counters.LeasesExpired < 1 {
		t.Errorf("counters %+v: the black-hole worker's lease never expired", st.Counters)
	}
	if st.Counters.LeasesReassigned < 1 {
		t.Errorf("counters %+v: the swallowed shard was never reassigned", st.Counters)
	}
}

// TestClusterBackpressureReoffer: satellite end-to-end — the coordinator
// offers more leases than the worker has shard slots; the worker answers
// 429 + Retry-After, the coordinator backs off and re-offers, and the
// campaign still completes byte-identically.
func TestClusterBackpressureReoffer(t *testing.T) {
	spec := testSpec()
	// One worker, one shard slot, but the coordinator is allowed two
	// concurrent leases — the second offer must bounce at least once.
	w := newWorker(t, serve.Config{ShardWorkers: 1, ShardStartDelay: 300 * time.Millisecond})
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:         []string{w},
		LeasesPerWorker: 2,
		LeaseTTL:        2 * time.Second,
		Backoff:         50 * time.Millisecond,
	})
	runMatchesLocal(t, coord, spec, 60*time.Second)
	st := coord.Status()
	if st.Counters.OffersBusy < 1 {
		t.Errorf("counters %+v: no offer was ever answered 429", st.Counters)
	}
	if st.Counters.ShardsCompleted != 2 {
		t.Errorf("counters %+v, want both shards completed", st.Counters)
	}
}

// failingWorker accepts every lease and posts a shard-level error back.
func failingWorker(t *testing.T) string {
	t.Helper()
	var client http.Client
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/lease", func(w http.ResponseWriter, r *http.Request) {
		var offer cluster.LeaseOffer
		if err := json.NewDecoder(r.Body).Decode(&offer); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		go func() {
			body := strings.NewReader(`{"lease_id":"` + offer.LeaseID + `","shard_id":"` + offer.ShardID + `","worker":"` + offer.Worker + `","error":"simulated shard failure"}`)
			resp, err := client.Post(offer.Coordinator+"/v1/shard/"+offer.LeaseID+"/result", "application/json", body)
			if err == nil {
				resp.Body.Close()
			}
		}()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"accepted"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestClusterExhaustsLeaseBudget: a shard failing on every lease fails
// the campaign after MaxAttempts with a telling error, instead of
// retrying forever.
func TestClusterExhaustsLeaseBudget(t *testing.T) {
	spec := testSpec()
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:     []string{failingWorker(t)},
		MaxAttempts: 2,
		LeaseTTL:    2 * time.Second,
		Backoff:     20 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := coord.Run(ctx)
	if err == nil {
		t.Fatal("campaign with an always-failing worker succeeded")
	}
	for _, want := range []string{"failed after 2 lease", "simulated shard failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if st := coord.Status(); st.Counters.ShardsFailed < 1 {
		t.Errorf("counters %+v, want a failed shard", st.Counters)
	}
}

// TestClusterResume: a coordinator canceled mid-campaign flushes its
// checkpoint; a resumed coordinator leases only the incomplete shards
// and converges to the byte-identical local report.
func TestClusterResume(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	w := newWorker(t, serve.Config{ShardWorkers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{w},
		LeaseTTL: 2 * time.Second,
		Dir:      dir,
		OnEvent: func(ev cluster.Event) {
			if ev.Type == "completed" {
				cancel() // stop after the first shard lands
			}
		},
	})
	partial, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	resumed := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{w},
		LeaseTTL: 2 * time.Second,
		Dir:      dir,
		Resume:   true,
	})
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	final, err := resumed.Run(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Fatal("resumed cluster run incomplete")
	}
	local, err := campaign.Run(spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, final), reportJSON(t, local); got != want {
		t.Errorf("resumed cluster report differs from local run:\n%s\nvs\n%s", got, want)
	}
	// The first run completed at least one shard; resume must not have
	// re-leased those.
	if partial.Complete {
		t.Skip("first run finished before the cancel landed; resume path not exercised")
	}
	st := resumed.Status()
	if int(st.Counters.LeasesGranted) >= len(cluster.Plan(spec, 0)) {
		t.Errorf("resume granted %d leases for %d shards; completed shards were re-leased",
			st.Counters.LeasesGranted, len(cluster.Plan(spec, 0)))
	}
}

// gridSpec is a campaign of small distributed points, one shard each.
func gridSpec(points int) *campaign.Spec {
	spec := &campaign.Spec{Name: "cluster-grid", Seed: 23, Trials: 3}
	for p := 0; p < points; p++ {
		n := 40 + 5*p
		spec.Points = append(spec.Points, campaign.PointSpec{
			ID: fmt.Sprintf("p%02d", p), X: float64(n),
			Trial: campaign.TrialSpec{Kind: "distributed", N: n, D: 8},
		})
	}
	return spec
}

// TestClusterProgressesOnWakes: with lease deadlines and back-offs an
// hour away, the coordinator's timer never fires within the run, so only
// result and offer wakes can drive a 16-shard campaign to completion.
func TestClusterProgressesOnWakes(t *testing.T) {
	spec := gridSpec(16)
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{newWorker(t, serve.Config{}), newWorker(t, serve.Config{})},
		LeaseTTL: time.Hour,
		Backoff:  time.Hour,
	})
	runMatchesLocal(t, coord, spec, 30*time.Second)
	if st := coord.Status(); st.Counters.ShardsCompleted != 16 {
		t.Errorf("counters %+v, want 16 shards completed", st.Counters)
	}
}

// TestClusterOneSlotWorkersNeverBusy: a worker frees its shard slot
// before it posts the result, so the coordinator's immediate re-offer
// always finds the slot free and no offer bounces with a 429.
func TestClusterOneSlotWorkersNeverBusy(t *testing.T) {
	spec := gridSpec(10)
	coord := newCoordinator(t, spec, cluster.Config{
		Workers: []string{
			newWorker(t, serve.Config{ShardWorkers: 1}),
			newWorker(t, serve.Config{ShardWorkers: 1}),
		},
	})
	runMatchesLocal(t, coord, spec, 60*time.Second)
	if st := coord.Status(); st.Counters.OffersBusy != 0 {
		t.Errorf("counters %+v: an offer reached a worker still holding its previous shard's slot", st.Counters)
	}
}

// busyOnceWorker is a real worker whose first lease offer is answered
// 429 with Retry-After: 1.
func busyOnceWorker(t *testing.T) string {
	t.Helper()
	s := serve.NewServer(serve.Config{})
	h := s.Handler()
	var mu sync.Mutex
	bounced := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard/lease" {
			mu.Lock()
			first := !bounced
			bounced = true
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(2 * time.Second)
	})
	return ts.URL
}

// TestClusterBackoffTimerReoffers: after a 429 the only pending shard
// waits out the worker's Retry-After. Nothing pokes the loop then, so
// the back-off timer alone must wake it to re-offer.
func TestClusterBackoffTimerReoffers(t *testing.T) {
	spec := gridSpec(1)
	coord := newCoordinator(t, spec, cluster.Config{
		Workers:  []string{busyOnceWorker(t)},
		LeaseTTL: time.Hour,
		Backoff:  time.Hour,
	})
	start := time.Now()
	runMatchesLocal(t, coord, spec, 30*time.Second)
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("run took %v; the 1 s Retry-After was not honored", elapsed)
	}
	if st := coord.Status(); st.Counters.OffersBusy != 1 || st.Counters.ShardsCompleted != 1 {
		t.Errorf("counters %+v, want 1 busy offer and 1 completed shard", st.Counters)
	}
}

// TestClusterRefusedOfferFailsShard: a worker that answers an offer 400
// or 422 has judged the shard itself invalid. The coordinator fails the
// shard at once instead of re-offering it until the context ends.
func TestClusterRefusedOfferFailsShard(t *testing.T) {
	overBudget := &campaign.Spec{
		Name: "over-budget", Seed: 1, Trials: 1,
		Points: []campaign.PointSpec{
			{ID: "huge", X: 1, Trial: campaign.TrialSpec{Kind: "distributed", N: 20000, D: 10000}},
		},
	}
	cases := []struct {
		name   string
		worker serve.Config
		spec   *campaign.Spec
		status string
	}{
		{"n over MaxN", serve.Config{MaxN: 50}, testSpec(), "status 400"},
		{"edges over budget", serve.Config{}, overBudget, "status 422"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newCoordinator(t, tc.spec, cluster.Config{
				Workers: []string{newWorker(t, tc.worker)},
				Backoff: 20 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := coord.Run(ctx)
			if ctx.Err() != nil {
				t.Fatalf("Run returned only at its context deadline (err %v)", err)
			}
			if err == nil {
				t.Fatal("campaign with a refused shard succeeded")
			}
			if !strings.Contains(err.Error(), tc.status) {
				t.Errorf("error %q does not mention %q", err, tc.status)
			}
			st := coord.Status()
			if st.Counters.ShardsFailed < 1 {
				t.Errorf("counters %+v, want a failed shard", st.Counters)
			}
			named := false
			for _, sh := range st.Shards {
				named = named || sh.State == cluster.ShardFailed && strings.Contains(err.Error(), "shard "+sh.ID+" ")
			}
			if !named {
				t.Errorf("error %q names no failed shard (shards %+v)", err, st.Shards)
			}
		})
	}
}

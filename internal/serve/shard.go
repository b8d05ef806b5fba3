package serve

// Cluster worker side: POST /v1/shard/lease admits (or rejects with 429
// backpressure) a coordinator's lease offer, runs the shard through the
// campaign runner, heartbeats the lease while it runs, and posts the
// samples back. See internal/cluster for the protocol and DESIGN.md §9
// for the lease state machine.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/cluster"
)

// ShardStats are the worker-side cluster counters in /metrics.
type ShardStats struct {
	// Accepted counts lease offers admitted; Rejected counts offers
	// answered 429 because every shard slot was busy.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	// Completed counts shards whose results were delivered; Abandoned
	// counts shards canceled mid-run (lost lease or shutdown); Failed
	// counts shard-level errors reported to the coordinator.
	Completed int64 `json:"completed"`
	Abandoned int64 `json:"abandoned"`
	Failed    int64 `json:"failed"`
	// Active is the number of shards running right now.
	Active int `json:"active"`
}

// handleShardLease is the worker's half of the lease protocol: admit the
// offer into a shard slot and run it in the background, or reject with
// 429 + Retry-After so the coordinator backs off and re-offers.
func (s *Server) handleShardLease(w http.ResponseWriter, r *http.Request) {
	var offer cluster.LeaseOffer
	if err := decodeJSON(r.Body, &offer); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		return
	}
	if err := validateOffer(&offer); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", repro.ErrConflictingOptions, err))
		return
	}
	if err := checkPoints(&s.cfg, offer.Spec.Points[offer.PointLo:offer.PointHi]); err != nil {
		s.writeError(w, err)
		return
	}
	if s.campaignCtx.Err() != nil {
		s.writeError(w, ErrClosed)
		return
	}
	select {
	case s.shardSem <- struct{}{}:
	default:
		s.mu.Lock()
		s.shardStats.Rejected++
		s.mu.Unlock()
		s.writeError(w, fmt.Errorf("%w: all %d shard slots busy", ErrBusy, cap(s.shardSem)))
		return
	}
	s.mu.Lock()
	s.shardStats.Accepted++
	s.shardStats.Active++
	s.mu.Unlock()
	s.campaignWG.Add(1)
	go func() {
		defer s.campaignWG.Done()
		s.runShard(&offer)
	}()
	writeJSON(w, http.StatusOK, cluster.LeaseAck{
		LeaseID: offer.LeaseID,
		ShardID: offer.ShardID,
		State:   "accepted",
		Worker:  offer.Worker,
	})
}

// validateOffer rejects malformed lease offers before a slot is charged.
func validateOffer(o *cluster.LeaseOffer) error {
	if o.LeaseID == "" || o.ShardID == "" {
		return fmt.Errorf("lease offer missing lease/shard id")
	}
	if o.Coordinator == "" {
		return fmt.Errorf("lease offer names no coordinator callback URL")
	}
	if o.Spec == nil {
		return fmt.Errorf("lease offer carries no spec")
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if h := o.Spec.Hash(); o.SpecHash != "" && o.SpecHash != h {
		return fmt.Errorf("lease offer spec hashes to %s, offer says %s", h, o.SpecHash)
	}
	if o.PointLo < 0 || o.PointHi > len(o.Spec.Points) || o.PointLo >= o.PointHi {
		return fmt.Errorf("lease offer point range [%d, %d) outside grid of %d points",
			o.PointLo, o.PointHi, len(o.Spec.Points))
	}
	if o.TTLMs <= 0 || int64(o.TTLMs) > math.MaxInt64/int64(time.Millisecond) {
		return fmt.Errorf("lease offer TTL %dms is not a positive duration", o.TTLMs)
	}
	return nil
}

// runShard executes one leased shard: heartbeat the lease, run the
// campaign slice, free the shard slot, deliver the samples. A lost lease
// (heartbeat 410) or server shutdown cancels the run cooperatively and
// abandons the shard — no result is posted, the coordinator's lease
// expiry handles the rest.
//
// The slot is freed before the result is posted: the coordinator
// re-offers the moment it imports the result, and that offer must find
// the slot free rather than bounce off a 429 and its Retry-After.
func (s *Server) runShard(offer *cluster.LeaseOffer) {
	release := sync.OnceFunc(func() {
		<-s.shardSem
		s.countShard(func(st *ShardStats) { st.Active-- })
	})
	defer release()
	ctx, cancel := context.WithCancel(s.campaignCtx)
	defer cancel()
	hbDone := make(chan struct{})
	defer close(hbDone)
	go s.heartbeatLoop(ctx, cancel, offer, hbDone)

	if s.cfg.ShardStartDelay > 0 {
		// Chaos knob: hold the lease (heartbeating, but making no
		// progress) so fault-injection tests can kill the worker
		// deterministically mid-shard.
		select {
		case <-time.After(s.cfg.ShardStartDelay):
		case <-ctx.Done():
			s.countShard(func(st *ShardStats) { st.Abandoned++ })
			return
		}
	}

	var samples []campaign.Sample
	_, err := campaign.Run(offer.Spec, campaign.Options{
		Context: ctx,
		PointLo: offer.PointLo,
		PointHi: offer.PointHi,
		Lanes:   offer.Lanes,
		Workers: s.cfg.Workers,
		Sink:    func(sm *campaign.Sample) { samples = append(samples, *sm) },
	})
	release()
	if ctx.Err() != nil {
		// Lease lost or shutting down: the run returned a partial report;
		// recording it would race the replacement lease, so drop it.
		s.countShard(func(st *ShardStats) { st.Abandoned++ })
		return
	}
	result := cluster.ShardResult{
		LeaseID: offer.LeaseID,
		ShardID: offer.ShardID,
		Worker:  offer.Worker,
	}
	if err != nil {
		result.Error = err.Error()
		s.countShard(func(st *ShardStats) { st.Failed++ })
	} else {
		// Deterministic wire order regardless of pool scheduling.
		sort.Slice(samples, func(i, j int) bool {
			if samples[i].Point != samples[j].Point {
				return samples[i].Point < samples[j].Point
			}
			return samples[i].Trial < samples[j].Trial
		})
		result.Samples = samples
	}
	if s.postResult(ctx, offer, &result) {
		if result.Error == "" {
			s.countShard(func(st *ShardStats) { st.Completed++ })
		}
	} else {
		s.countShard(func(st *ShardStats) { st.Abandoned++ })
	}
}

func (s *Server) countShard(f func(*ShardStats)) {
	s.mu.Lock()
	f(&s.shardStats)
	s.mu.Unlock()
}

// heartbeatInterval is TTL/3, and at least 10ms, for an offer that
// validateOffer accepted.
func heartbeatInterval(offer *cluster.LeaseOffer) time.Duration {
	return max(time.Duration(offer.TTLMs)*time.Millisecond/3, 10*time.Millisecond)
}

// heartbeatLoop extends the lease at TTL/3 until the shard finishes
// (done) or the lease dies (410 → cancel the run). Transient heartbeat
// errors are tolerated: the lease survives until its deadline, and if
// the coordinator stays unreachable the lease expires server-side while
// the abandoned run cancels on the next 410.
func (s *Server) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, offer *cluster.LeaseOffer, done <-chan struct{}) {
	interval := heartbeatInterval(offer)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	client := &http.Client{Timeout: interval * 2}
	url := offer.Coordinator + "/v1/shard/" + offer.LeaseID + "/heartbeat"
	body, _ := json.Marshal(cluster.Heartbeat{LeaseID: offer.LeaseID, Worker: offer.Worker})
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			// The lease was reassigned or the shard completed elsewhere;
			// stop burning cycles on it.
			cancel()
			return
		}
	}
}

// postResult delivers the shard result with bounded retries, returning
// whether the coordinator acknowledged it.
func (s *Server) postResult(ctx context.Context, offer *cluster.LeaseOffer, result *cluster.ShardResult) bool {
	body, err := json.Marshal(result)
	if err != nil {
		return false
	}
	url := offer.Coordinator + "/v1/shard/" + offer.LeaseID + "/result"
	client := &http.Client{Timeout: 30 * time.Second}
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			case <-ctx.Done():
				return false
			}
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return true
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusGone {
			return false // no retry can fix these
		}
	}
	return false
}

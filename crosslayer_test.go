package repro_test

// Cross-layer byte-identity: the unified execution layer
// (internal/exec) and every consumer of it — the facade, the campaign
// runner and the HTTP server — must produce identical samples for the
// same (graph, protocol, seed) configuration, because they all resolve
// to the same backend through the same classification and the same
// positional trial-seed convention. One spec seed drives all four layers
// here:
//
//	pointSeed = xrand.New(specSeed).DeriveSeed(1)   (campaign point 0)
//	graphSeed = xrand.New(pointSeed).DeriveSeed(0)  (campaign fixed graph)
//	trial i   = sweep.Seeds(trials, pointSeed)[i]
//
// The lane leg (facade RunBatch, exec.RunSeeds, campaign fixed-graph
// point) must agree bit-for-bit, and the scalar leg (facade Run, serve
// POST /v1/run) must agree bit-for-bit; the two legs use different
// randomness streams by design (the PR 3 stream policy), so they are
// compared within, not across.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

const (
	xlN        = 400
	xlD        = 8.0
	xlTrials   = 20
	xlSpecSeed = 77
)

func TestCrossLayerByteIdentity(t *testing.T) {
	pointSeed := xrand.New(xlSpecSeed).DeriveSeed(1)
	graphSeed := xrand.New(pointSeed).DeriveSeed(0)
	g, ok := repro.ConnectedGnpDegree(xlN, xlD, repro.NewRand(graphSeed))
	if !ok {
		t.Fatalf("no connected G(n=%d, d=%g)", xlN, xlD)
	}
	maxRounds := core.MaxRoundsFor(xlN)
	seeds := sweep.Seeds(xlTrials, pointSeed)

	// Layer 1: facade lane batch.
	rounds, err := repro.RunBatch(g, 0, xlTrials, repro.WithDegree(xlD), repro.WithSeed(pointSeed))
	if err != nil {
		t.Fatal(err)
	}

	// Layer 2: the execution layer over the same protocol and seeds.
	p := core.NewDistributedProtocol(xlN, xlD)
	values := make([]int, xlTrials)
	backend, err := exec.RunSeeds(context.Background(),
		&exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: maxRounds}, seeds, values)
	if err != nil {
		t.Fatal(err)
	}
	if backend != exec.BackendLanes {
		t.Fatalf("distributed protocol ran on %v, must classify as lane-uniform", backend)
	}
	for i, v := range values {
		if v != rounds[i] {
			t.Fatalf("exec trial %d = %d, facade RunBatch = %d", i, v, rounds[i])
		}
	}

	// Layer 3: campaign run of the equivalent one-point fixed-graph spec.
	spec := &campaign.Spec{
		Name:   "crosslayer",
		Seed:   xlSpecSeed,
		Trials: xlTrials,
		Points: []campaign.PointSpec{{
			ID:    "p0",
			X:     xlD,
			Trial: campaign.TrialSpec{Kind: "distributed", N: xlN, D: xlD, FixedGraph: true},
		}},
	}
	var samples []*campaign.Sample
	if _, err := campaign.Run(spec, campaign.Options{
		Workers: 2,
		Sink:    func(s *campaign.Sample) { samples = append(samples, s) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(samples) != xlTrials {
		t.Fatalf("campaign produced %d samples, want %d", len(samples), xlTrials)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Trial < samples[j].Trial })
	for i, s := range samples {
		if s.Failed {
			t.Fatalf("campaign trial %d failed: %s", i, s.Err)
		}
		if s.Seed != seeds[i] {
			t.Fatalf("campaign trial %d seed = %#x, want %#x (positional convention)", i, s.Seed, seeds[i])
		}
		if s.Value != float64(rounds[i]) {
			t.Fatalf("campaign trial %d = %g, facade RunBatch = %d", i, s.Value, rounds[i])
		}
		if want := rounds[i] <= maxRounds; s.OK != want {
			t.Fatalf("campaign trial %d ok = %v, want %v", i, s.OK, want)
		}
	}

	// Scalar leg: facade Run vs serve POST /v1/run on the same graph
	// (the server rebuilds it from graphSeed through its LRU) and the
	// same per-trial seeds.
	srv := serve.NewServer(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(2 * time.Second)
	}()
	for _, seed := range seeds[:3] {
		res, err := repro.Run(g, 0, repro.WithDegree(xlD), repro.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(serve.RunRequest{
			Generator: "gnp-connected", N: xlN, D: xlD, GraphSeed: graphSeed,
			Algo: "distributed", Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run status %d", resp.StatusCode)
		}
		var rr serve.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rr.Rounds != res.Rounds || rr.Completed != res.Completed || rr.Informed != res.Informed {
			t.Fatalf("serve run (rounds=%d completed=%v informed=%d) diverges from facade Run (rounds=%d completed=%v informed=%d) at seed %#x",
				rr.Rounds, rr.Completed, rr.Informed, res.Rounds, res.Completed, res.Informed, seed)
		}
	}
}

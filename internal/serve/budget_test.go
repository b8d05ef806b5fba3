package serve

import (
	"errors"
	"io"
	"net/http"
	"testing"

	"repro"
	"repro/internal/campaign"
)

// Graph sizes around the gate: n·min(d, n−1)/2 against MaxExpectedEdges
// (2²⁶ ≈ 6.7·10⁷ edges) and n against the default MaxN of 2·10⁶.
var budgetCases = []struct {
	name string
	n    int
	d    float64
	want int
}{
	{"d near n", 20_000, 19_999, http.StatusUnprocessableEntity},
	{"d beyond n is capped at n-1, still over", 12_000, 1e12, http.StatusUnprocessableEntity},
	{"sparse but huge", 1_900_000, 80, http.StatusUnprocessableEntity},
	{"n over MaxN", 2_000_001, 10, http.StatusBadRequest},
}

func TestCheckGraphSize(t *testing.T) {
	cfg := (&Config{}).withDefaults()
	for _, tc := range []struct {
		n    int
		d    float64
		want error
	}{
		{100_000, 25, nil},
		{11_000, 1e9, nil}, // capped: 11000·10999/2 ≈ 6.05e7 edges
		{12_000, 1e9, ErrOverBudget},
		{1 << 20, 128, nil}, // exactly 2²⁶ expected edges
		{1 << 20, 128.01, ErrOverBudget},
	} {
		err := checkGraphSize(&cfg, tc.n, tc.d)
		if tc.want == nil && err != nil {
			t.Errorf("n=%d d=%g: %v, want accepted", tc.n, tc.d, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("n=%d d=%g: %v, want %v", tc.n, tc.d, err, tc.want)
		}
	}
	if err := checkGraphSize(&cfg, 100, -1); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("negative degree: %v, want ErrConflictingOptions", err)
	}
}

// TestEdgeBudgetRun: /v1/run and /v1/run/stream refuse over-budget
// graphs before sampling anything.
func TestEdgeBudgetRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/run", "/v1/run/stream"} {
		for _, tc := range budgetCases {
			resp := postJSON(t, ts.URL+path, RunRequest{N: tc.n, D: tc.d, GraphSeed: 1})
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", path, tc.name, resp.StatusCode, tc.want, b)
			}
		}
	}
}

// TestEdgeBudgetCampaign: a campaign with any over-size point is refused
// at submission.
func TestEdgeBudgetCampaign(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range budgetCases {
		spec := campaign.Spec{Name: "budget", Seed: 1, Trials: 1, Points: []campaign.PointSpec{
			{ID: "ok", X: 1, Trial: campaign.TrialSpec{Kind: "distributed", N: 100, D: 8}},
			{ID: "big", X: 2, Trial: campaign.TrialSpec{Kind: "distributed", N: tc.n, D: tc.d}},
		}}
		resp := postJSON(t, ts.URL+"/v1/campaign", spec)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, b)
		}
	}
}

// TestEdgeBudgetShardLease: a lease offer whose range holds an over-size
// point is refused before a shard slot is charged.
func TestEdgeBudgetShardLease(t *testing.T) {
	fc := newFakeCoordinator(t)
	_, ts := newTestServer(t, Config{ShardWorkers: 1})
	for _, tc := range budgetCases {
		spec := shardSpec()
		spec.Points = append(spec.Points, campaign.PointSpec{
			ID: "big", X: 2, Trial: campaign.TrialSpec{Kind: "distributed", N: tc.n, D: tc.d}})
		offer := offerFor(spec, fc.ts.URL, 1000)
		resp := postJSON(t, ts.URL+"/v1/shard/lease", offer)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, b)
		}
	}
	if n := fc.heartbeats(); n != 0 {
		t.Errorf("a refused offer still heartbeated %d times", n)
	}
}

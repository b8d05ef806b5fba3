package campaign

// Golden fingerprint of a resampled (non-FixedGraph) campaign: every trial
// samples a fresh connected G(n, d/n), then runs the Theorem 7 protocol
// or builds and replays the Theorem 5 schedule. The value was recorded
// before the fast geometric skips, the one-BFS schedule builder, the
// map-free covers and the pooled builder edge buffers landed; all four
// are meant to leave the report byte-identical.

import (
	"hash/fnv"
	"testing"
)

func TestResampledCampaignGolden(t *testing.T) {
	const want uint64 = 15888495839317677471
	spec := &Spec{
		Name:   "resample-golden",
		Seed:   2006,
		Trials: 6,
		Points: []PointSpec{
			{ID: "dist", X: 12, Trial: TrialSpec{Kind: "distributed", N: 2000, D: 12}},
			{ID: "cent", X: 12, Trial: TrialSpec{Kind: "centralized", N: 2000, D: 12}},
		},
	}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	if got := h.Sum64(); got != want {
		t.Errorf("report fingerprint %d, want %d\n%s", got, want, b)
	}
}

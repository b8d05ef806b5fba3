package campaign

// Golden fingerprint of a resampled (non-FixedGraph) campaign: every trial
// samples a fresh connected G(n, d/n), then runs the Theorem 7 protocol
// or builds and replays the Theorem 5 schedule. The value was recorded
// before the fast geometric skips, the one-BFS schedule builder, the
// map-free covers and the pooled builder edge buffers landed; all four
// are meant to leave the report byte-identical.

import (
	"fmt"
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

// Golden fingerprint of a resampled campaign whose points differ in n:
// every kind at a small and then a larger n, so that one worker runs a
// point right after a smaller one, plus a low-degree point (d = 7 at
// n = 1000, connected about 40% of the time) whose draws retry. One and
// three workers must give the same report. The value was recorded before
// resampled trials began drawing into reused storage, so it pins that the
// reuse changes no draw and that no engine sized for a smaller n serves a
// larger one.
func TestMixedSizeResampledCampaignGolden(t *testing.T) {
	const want uint64 = 10850966486515822341
	spec := &Spec{
		Name:   "mixed-resample-golden",
		Seed:   2006,
		Trials: 6,
	}
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate", "centralized"} {
		for _, n := range []int{600, 1500} {
			spec.Points = append(spec.Points, PointSpec{
				ID: fmt.Sprintf("%s-n%d", kind, n), X: float64(n),
				Trial: TrialSpec{Kind: kind, N: n, D: 10},
			})
		}
	}
	spec.Points = append(spec.Points, PointSpec{
		ID: "distributed-n1000-d7", X: 1000,
		Trial: TrialSpec{Kind: "distributed", N: 1000, D: 7},
	})
	for _, workers := range []int{1, 3} {
		// An empty pool makes the first scratch's engine the smallest one.
		freshScratchPool(t)
		rep, err := Run(spec, Options{Workers: workers})
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
			t.Errorf("Workers=%d: report fingerprint %d, want %d\n%s", workers, got, want, b)
		}
	}
}

// Golden fingerprint of a lane-batched campaign: FixedGraph points of
// every lane-capable kind run in lane blocks through exec sessions, on a
// graph whose lane planes fit in cache (n = 2000) and on one whose planes
// do not (n = 70000). The value was recorded before the lane engine's
// dense transmitter build landed; that build only reorders memory
// traffic, so the report must stay byte-identical.
func TestFixedGraphCampaignGolden(t *testing.T) {
	const want uint64 = 3901518985933558673
	spec := &Spec{
		Name:   "fixed-golden",
		Seed:   2006,
		Trials: 8,
	}
	for _, n := range []int{2000, 70000} {
		for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate"} {
			spec.Points = append(spec.Points, PointSpec{
				ID: fmt.Sprintf("%s-n%d", kind, n), X: float64(n),
				Trial: TrialSpec{Kind: kind, N: n, D: 10, FixedGraph: true},
			})
		}
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

// Golden fingerprint of the scalar engine on fixed graphs: one FixedGraph
// point per built-in kind, the centralized schedule included, plus a
// resampled collision-rate point. Lanes: 1 runs every trial on the scalar
// engine and Lanes: 0 (auto) runs the lane-capable kinds in lane blocks,
// so the two engines' streams are pinned side by side; both values were
// recorded before the campaign runners moved to one block-of-seeds trial
// method, which must leave either report byte-identical.
func TestScalarFixedGraphCampaignGolden(t *testing.T) {
	spec := &Spec{
		Name:   "scalar-fixed-golden",
		Seed:   2006,
		Trials: 8,
	}
	for _, kind := range []string{"distributed", "decay", "aloha", "collision-rate", "centralized"} {
		spec.Points = append(spec.Points, PointSpec{
			ID: kind + "-n2000", X: 2000,
			Trial: TrialSpec{Kind: kind, N: 2000, D: 10, FixedGraph: true},
		})
	}
	spec.Points = append(spec.Points, PointSpec{
		ID: "cr-resampled", X: 1,
		Trial: TrialSpec{Kind: "collision-rate", N: 1500, D: 10},
	})
	for _, tc := range []struct {
		lanes int
		want  uint64
	}{
		{1, 15990996213644974131},
		{0, 801294740501871929},
	} {
		rep, err := Run(spec, Options{Workers: 2, Lanes: tc.lanes})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("Lanes=%d: report fingerprint %d, want %d\n%s", tc.lanes, got, tc.want, b)
		}
	}
}

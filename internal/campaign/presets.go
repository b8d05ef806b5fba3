package campaign

import (
	"fmt"
	"math"
	"sort"
)

// Presets port the repository's standing sweeps onto the campaign
// runner: the E1 centralized-vs-n, E2 centralized-vs-d and E4
// distributed-vs-n scaling experiments, the E23-style collision-rate
// sweep, the EXPERIMENTS.md full-scale spot check, and the tiny CI smoke
// grids. A preset is just a Spec builder. Experiments E1, E2 and E4 run
// their presets in memory, so `campaign spec -preset e1 | campaign run
// -spec -` is the checkpointed, resumable form of `experiments E1` and
// reports the same numbers.

// presetFunc builds a preset spec at a scale ("small", "medium", "full").
type presetFunc func(scale string, seed uint64, trials int) (*Spec, error)

var presets = map[string]presetFunc{
	"e1":             presetE1,
	"e2":             presetE2,
	"e4":             presetE4,
	"collision-rate": presetCollisionRate,
	"scale":          presetScale,
	"smoke":          presetSmoke,
	"lane-smoke":     presetLaneSmoke,
}

// Presets returns the available preset names, sorted.
func Presets() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset builds a named preset spec. trials overrides the preset's
// per-point budget when positive.
func Preset(name, scale string, seed uint64, trials int) (*Spec, error) {
	fn, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown preset %q (have %v)", name, Presets())
	}
	spec, err := fn(scale, seed, trials)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// presetNLadder returns the n ladder of the scaling presets at a scale.
func presetNLadder(scale string) ([]int, error) {
	switch scale {
	case "small":
		return []int{500, 1000, 2000}, nil
	case "medium":
		return []int{1000, 2000, 4000, 8000, 16000, 32000}, nil
	case "full":
		return []int{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown scale %q (small, medium or full)", scale)
	}
}

func presetTrials(scale string, override, small, medium, full int) int {
	if override > 0 {
		return override
	}
	switch scale {
	case "medium":
		return medium
	case "full":
		return full
	default:
		return small
	}
}

// ladderPoints builds one point per ladder size with d = 2 ln n.
func ladderPoints(ns []int, kind string) []PointSpec {
	points := make([]PointSpec, len(ns))
	for i, n := range ns {
		points[i] = PointSpec{
			ID: fmt.Sprintf("n%d", n),
			X:  float64(n),
			Trial: TrialSpec{
				Kind: kind,
				N:    n,
				D:    2 * math.Log(float64(n)),
			},
		}
	}
	return points
}

// presetE1 is experiment E1 as a campaign: centralized broadcast rounds
// vs n at d = 2 ln n (Theorem 5 scaling).
func presetE1(scale string, seed uint64, trials int) (*Spec, error) {
	ns, err := presetNLadder(scale)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:       "e1-centralized-vs-n-" + scale,
		Seed:       seed,
		Trials:     presetTrials(scale, trials, 3, 5, 8),
		MaxRetries: 1,
		Points:     ladderPoints(ns, "centralized"),
	}, nil
}

// presetE2 is experiment E2 as a campaign: centralized broadcast rounds
// vs d at fixed n (the U-shape of Theorem 5's ln n/ln d + ln d). The
// degree ladder is in multiples of ln n, capped at n/16 so the densest
// graph (n²/32 edges) stays within laptop memory.
func presetE2(scale string, seed uint64, trials int) (*Spec, error) {
	n, ok := map[string]int{"small": 2000, "medium": 16000, "full": 32000}[scale]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scale %q (small, medium or full)", scale)
	}
	mults := []float64{1.5, 2, 4, 8, 16, 32, 64}
	if scale == "small" {
		mults = []float64{1.5, 3, 8, 20}
	}
	points := make([]PointSpec, len(mults))
	for i, m := range mults {
		d := min(m*math.Log(float64(n)), float64(n)/16)
		points[i] = PointSpec{
			ID:    fmt.Sprintf("d%.1f", d),
			X:     d,
			Trial: TrialSpec{Kind: "centralized", N: n, D: d},
		}
	}
	return &Spec{
		Name:       "e2-centralized-vs-d-" + scale,
		Seed:       seed,
		Trials:     presetTrials(scale, trials, 3, 5, 8),
		MaxRetries: 1,
		Points:     points,
	}, nil
}

// presetE4 is experiment E4 as a campaign: distributed protocol
// completion round vs n (Theorem 7 scaling) in two regimes, the
// d = 2 ln n ladder followed by the d = n^0.4 ladder (IDs suffixed
// "-pow0.4"). Appending the second regime keeps the first one's point
// indices, and so its seeds.
func presetE4(scale string, seed uint64, trials int) (*Spec, error) {
	ns, err := presetNLadder(scale)
	if err != nil {
		return nil, err
	}
	points := ladderPoints(ns, "distributed")
	for _, p := range ladderPoints(ns, "distributed") {
		p.ID += "-pow0.4"
		p.Trial.D = math.Pow(float64(p.Trial.N), 0.4)
		points = append(points, p)
	}
	return &Spec{
		Name:       "e4-distributed-vs-n-" + scale,
		Seed:       seed,
		Trials:     presetTrials(scale, trials, 5, 7, 10),
		MaxRetries: 1,
		Points:     points,
	}, nil
}

// presetCollisionRate is the E23-style aggregate as a campaign: the
// fraction of listener-rounds lost to collisions during one distributed
// broadcast, vs n.
func presetCollisionRate(scale string, seed uint64, trials int) (*Spec, error) {
	ns, err := presetNLadder(scale)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:       "collision-rate-vs-n-" + scale,
		Seed:       seed,
		Trials:     presetTrials(scale, trials, 5, 8, 10),
		MaxRetries: 1,
		Points:     ladderPoints(ns, "collision-rate"),
	}, nil
}

// presetScale is EXPERIMENTS.md's full-scale spot check as one campaign:
// the E1 and E4 full ladders side by side, with adaptive stopping at a
// 5% relative CI target so dense points stop as soon as their means are
// pinned down. The scale argument still selects the ladder so the
// campaign can be rehearsed small.
func presetScale(scale string, seed uint64, trials int) (*Spec, error) {
	ns, err := presetNLadder(scale)
	if err != nil {
		return nil, err
	}
	cent := ladderPoints(ns, "centralized")
	dist := ladderPoints(ns, "distributed")
	points := make([]PointSpec, 0, len(cent)+len(dist))
	for i := range cent {
		cent[i].ID = "centralized-" + cent[i].ID
		points = append(points, cent[i])
	}
	for i := range dist {
		dist[i].ID = "distributed-" + dist[i].ID
		points = append(points, dist[i])
	}
	return &Spec{
		Name:       "scale-spot-check-" + scale,
		Seed:       seed,
		Trials:     presetTrials(scale, trials, 6, 10, 12),
		MaxRetries: 1,
		Stop:       &StopRule{MinTrials: 4, HalfWidth: 0.05, Relative: true},
		Points:     points,
	}, nil
}

// presetSmoke is the CI kill-and-resume grid: two tiny points, seconds
// of work, no adaptive stopping (every trial runs, so the interrupted
// and uninterrupted runs must agree exactly).
func presetSmoke(scale string, seed uint64, trials int) (*Spec, error) {
	if trials <= 0 {
		trials = 6
	}
	_ = scale // the smoke grid is fixed-size by design
	return &Spec{
		Name:       "smoke",
		Seed:       seed,
		Trials:     trials,
		MaxRetries: 1,
		Shards:     2,
		Points: []PointSpec{
			{ID: "n300", X: 300, Trial: TrialSpec{Kind: "distributed", N: 300, D: 12}},
			{ID: "n600", X: 600, Trial: TrialSpec{Kind: "distributed", N: 600, D: 13}},
		},
	}, nil
}

// presetLaneSmoke is the lane-engine CI grid: fixed-graph points of every
// lane-capable kind, so trials dispatch in lane blocks under the default
// -lanes setting. Reports must be byte-identical for every -lanes value
// >= 2 (and 0); see the lane invariance tests.
func presetLaneSmoke(scale string, seed uint64, trials int) (*Spec, error) {
	if trials <= 0 {
		trials = 20
	}
	// The grid is fixed-size by design, but reject unknown scales like
	// every other preset does.
	if _, err := presetNLadder(scale); err != nil {
		return nil, err
	}
	return &Spec{
		Name:       "lane-smoke",
		Seed:       seed,
		Trials:     trials,
		MaxRetries: 1,
		Shards:     2,
		Points: []PointSpec{
			{ID: "dist-n400", X: 400, Trial: TrialSpec{Kind: "distributed", N: 400, D: 12, FixedGraph: true}},
			{ID: "decay-n300", X: 300, Trial: TrialSpec{Kind: "decay", N: 300, D: 12, FixedGraph: true}},
			{ID: "aloha-n300", X: 300, Trial: TrialSpec{Kind: "aloha", N: 300, D: 12, FixedGraph: true}},
		},
	}, nil
}

package exp

// E23 — the observer-layer experiment: measured per-round collision rates
// versus the 1/d-selective prediction. With T transmitters in a round of
// G(n, d/n), a listening node's transmitting-neighbour count is
// approximately Poisson(λ) with λ = T·d/n, so the probability a listener
// loses the round to a collision is 1 − e^{−λ} − λe^{−λ}, and the
// probability of a clean reception is λe^{−λ}. In the 1/d-selective phase
// of the Theorem 7 protocol, T ≈ |I|/d keeps λ ≤ 1, which is exactly why
// the protocol makes steady progress; the flooding rounds show the
// collision storm the selectivity avoids.

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E23",
		Title: "Collision rate under 1/d-selective transmission (round-level trace)",
		Claim: "With T transmitters a listener collides w.p. ≈ 1−e^{−λ}−λe^{−λ}, λ = T·d/n; the 1/d-selective phase keeps λ ≤ 1, so clean receptions track λe^{−λ}.",
		Run:   runCollisionTrace,
	})
}

// collisionPrediction returns the Poisson(λ) collision and clean-reception
// probabilities for a listening node.
func collisionPrediction(lambda float64) (pCol, pOK float64) {
	e := math.Exp(-lambda)
	return 1 - e - lambda*e, lambda * e
}

// roundAgg accumulates per-round sums across trials.
type roundAgg struct {
	trials    int // trials that executed this round
	tx        int
	successes int
	collision int
	listeners int
	informed  int // cumulative informed after the round, summed over trials
}

// collisionParams returns (n, d, trials, rows) for the scale.
func collisionParams(cfg Config) (int, float64, int, int) {
	switch cfg.Scale {
	case Small:
		return 1500, 12, cfg.trials(8), 14
	case Medium:
		return 30000, 25, cfg.trials(40), 18
	default:
		return 100000, 25, cfg.trials(50), 22
	}
}

func runCollisionTrace(cfg Config) []*table.Table {
	n, d, trials, rowCap := collisionParams(cfg)
	rng := xrand.New(cfg.Seed)
	g := sampleConnected(n, d, rng.Derive(1))
	p := core.NewDistributedProtocol(n, d)
	budget := core.MaxRoundsFor(n)

	var rec trace.Recorder
	s := exec.Open(&exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: budget, Observer: &rec})
	agg := map[int]*roundAgg{}
	maxRound := 0
	for i := 0; i < trials; i++ {
		rec.Reset()
		s.Time(context.Background(), rng.Derive(uint64(i)+2)) // cannot fail: protocol, uncanceled
		for _, r := range rec.Records {
			a := agg[r.Round]
			if a == nil {
				a = &roundAgg{}
				agg[r.Round] = a
			}
			a.trials++
			a.tx += r.Transmitters
			a.successes += r.Successes
			a.collision += r.Collisions
			a.listeners += r.Listeners()
			a.informed += r.Informed
			if r.Round > maxRound {
				maxRound = r.Round
			}
		}
	}

	t := table.New("E23: measured vs predicted per-listener collision rate",
		"round", "phase", "mean tx", "mean informed", "lambda", "P(col) meas", "P(col) pred", "P(ok) meas", "P(ok) pred")
	rows := maxRound
	if rows > rowCap {
		rows = rowCap
	}
	for r := 1; r <= rows; r++ {
		a := agg[r]
		if a == nil || a.listeners == 0 {
			continue
		}
		meanTx := float64(a.tx) / float64(a.trials)
		lambda := meanTx * d / float64(n)
		pCol, pOK := collisionPrediction(lambda)
		phase := "1/d-selective"
		switch {
		case r <= p.D1:
			phase = "flood"
		case r == p.D1+1:
			phase = "kick"
		}
		t.AddRow(r, phase,
			meanTx,
			float64(a.informed)/float64(a.trials),
			lambda,
			float64(a.collision)/float64(a.listeners),
			pCol,
			float64(a.successes)/float64(a.listeners),
			pOK)
	}
	t.AddNote("G(n=%d, d=%.0f), %d trials on one connected sample; λ = E[tx]·d/n (Poisson approximation of a listener's transmitting neighbours).", n, d, trials)
	t.AddNote("flood = rounds 1..D1 (everyone transmits), kick = round D1+1, then 1/d-selective; D1 = %d here.", p.D1)
	if maxRound > rows {
		t.AddNote("showing rounds 1..%d of %d executed (later selective rounds repeat the same regime).", rows, maxRound)
	}
	return []*table.Table{t}
}

// CollisionTraceRun executes ONE instrumented broadcast at the scale's
// parameters with the caller's observer attached alongside the internal
// recorder (pass nil for none) and returns the single-run
// measured-vs-predicted table. It backs the -trace/-trace-out flags of
// cmd/experiments.
func CollisionTraceRun(cfg Config, obs trace.Observer) *table.Table {
	n, d, _, _ := collisionParams(cfg)
	rng := xrand.New(cfg.Seed)
	g := sampleConnected(n, d, rng.Derive(1))
	p := core.NewDistributedProtocol(n, d)

	var rec trace.Recorder // a protocol run under a background context cannot fail
	exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p,
		MaxRounds: core.MaxRoundsFor(n), Observer: trace.Multi(obs, &rec)}, rng.Derive(2))

	t := table.New("instrumented broadcast: per-round collision rate",
		"round", "phase", "tx", "informed", "lambda", "P(col) meas", "P(col) pred", "P(ok) meas", "P(ok) pred")
	for _, r := range rec.Records {
		listeners := r.Listeners()
		if listeners == 0 {
			continue
		}
		lambda := float64(r.Transmitters) * d / float64(n)
		pCol, pOK := collisionPrediction(lambda)
		phase := "1/d-selective"
		switch {
		case r.Round <= p.D1:
			phase = "flood"
		case r.Round == p.D1+1:
			phase = "kick"
		}
		t.AddRow(r.Round, phase, r.Transmitters, r.Informed, lambda,
			float64(r.Collisions)/float64(listeners), pCol,
			float64(r.Successes)/float64(listeners), pOK)
	}
	t.AddNote("single run on G(n=%d, d=%.0f), seed %d; D1 = %d flooding rounds.", n, d, cfg.Seed, p.D1)
	return t
}

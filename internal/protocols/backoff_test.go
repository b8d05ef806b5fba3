package protocols

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func TestBackoffCompletesKnowledgeFree(t *testing.T) {
	const n = 2000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 1)
	res, err := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0},
		Feedback: NewBackoff(n), MaxRounds: 20 * core.MaxRoundsFor(n)}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("backoff incomplete: %d/%d after %d rounds", res.Informed, n, res.Rounds)
	}
}

func TestBackoffCompetitiveWithPaperProtocol(t *testing.T) {
	// Knowledge-free CD backoff should be within a modest factor of the
	// paper's (n,p)-aware protocol.
	const n = 2000
	d := 2 * math.Log(n)
	g := connected(t, n, d, 3)
	med := func(run func(seed uint64) int) int {
		var ts []int
		for i := uint64(0); i < 5; i++ {
			ts = append(ts, run(i))
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[len(ts)/2]
	}
	budget := 20 * core.MaxRoundsFor(n)
	backoff := med(func(seed uint64) int {
		res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0},
			Feedback: NewBackoff(n), MaxRounds: budget}, xrand.New(100+seed))
		if !res.Completed {
			return budget + 1
		}
		return res.Rounds
	})
	paper := med(func(seed uint64) int {
		r, _ := exec.Time(context.Background(), &exec.Request{Graph: g, Sources: []int32{0},
			Protocol: core.NewDistributedProtocol(n, d), MaxRounds: budget}, xrand.New(100+seed))
		return r
	})
	if backoff > 20*paper {
		t.Fatalf("backoff (%d) more than 20x the paper protocol (%d)", backoff, paper)
	}
}

func TestBackoffRateAdaptation(t *testing.T) {
	b := NewBackoff(3)
	rng := xrand.New(4)
	if b.Rate(0) != -1 {
		t.Fatal("rate set before first action")
	}
	// First call: one Bernoulli(InitialP) shot; rate then parks at MaxP.
	b.InitialP = 1 // force the deterministic branch for the test
	if !b.TransmitCD(0, 1, 0, radio.FeedbackSilence, rng) {
		t.Fatal("initial shout did not transmit")
	}
	if b.Rate(0) != b.MaxP {
		t.Fatalf("rate after init %v, want MaxP %v", b.Rate(0), b.MaxP)
	}
	// Collision halves.
	b.TransmitCD(0, 2, 0, radio.FeedbackCollision, rng)
	if b.Rate(0) != b.MaxP/2 {
		t.Fatalf("rate after collision %v", b.Rate(0))
	}
	// Message keeps.
	b.TransmitCD(0, 3, 0, radio.FeedbackMessage, rng)
	if b.Rate(0) != b.MaxP/2 {
		t.Fatalf("rate after message %v", b.Rate(0))
	}
	// Silence doubles, capped at MaxP.
	b.TransmitCD(0, 4, 0, radio.FeedbackSilence, rng)
	b.TransmitCD(0, 5, 0, radio.FeedbackSilence, rng)
	if b.Rate(0) != b.MaxP {
		t.Fatalf("rate after silences %v, want cap %v", b.Rate(0), b.MaxP)
	}
	// Repeated collisions floor at MinP.
	for i := 0; i < 60; i++ {
		b.TransmitCD(1, i+1, 0, radio.FeedbackCollision, rng)
	}
	if b.Rate(1) < b.MinP || b.Rate(1) > 2*b.MinP {
		t.Fatalf("rate not floored: %v", b.Rate(1))
	}
}

func TestBackoffRatesConvergeTowardInverseDegree(t *testing.T) {
	// On K_n every informed node shares one collision domain, so after
	// saturation the AIMD rates must fall far below MaxP (toward ~1/n).
	// Broadcast completes in round 1, so drive the rounds manually past
	// completion.
	const n = 300
	g := gen.Complete(n)
	b := NewBackoff(n)
	e := radio.NewEngine(g, 0, radio.StrictInformed)
	rng := xrand.New(5)
	fb := make([]radio.Feedback, n)
	prev := make([]radio.Feedback, n)
	for i := range prev {
		prev[i] = radio.FeedbackSilence
	}
	var tx []int32
	for round := 1; round <= 200; round++ {
		tx = tx[:0]
		for v := int32(0); v < n; v++ {
			if e.Informed(v) && b.TransmitCD(v, round, e.InformedAt(v), prev[v], rng) {
				tx = append(tx, v)
			}
		}
		if _, err := e.RoundWithFeedback(tx, fb); err != nil {
			t.Fatal(err)
		}
		prev, fb = fb, prev
	}
	sum, count := 0.0, 0
	for v := int32(0); v < n; v++ {
		if r := b.Rate(v); r >= 0 {
			sum += r
			count++
		}
	}
	if count < n/2 {
		t.Fatalf("only %d nodes acted", count)
	}
	mean := sum / float64(count)
	if mean > 0.2 {
		t.Fatalf("mean rate %v did not back off on K_n", mean)
	}
}

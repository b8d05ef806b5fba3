package exec_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/radio"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// cdReq is a collision-detection request on g: the knowledge-free
// Backoff protocol from node 0 under a generous budget.
func cdReq(g *graph.Graph) *exec.Request {
	return &exec.Request{
		Graph:     g,
		Sources:   []int32{0},
		Feedback:  protocols.NewBackoff(g.N()),
		MaxRounds: 20 * core.MaxRoundsFor(g.N()),
	}
}

// informedAtHash is an FNV-64a fingerprint of a Result's InformedAt.
func informedAtHash(at []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range at {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRunFeedbackGolden: a CD request through exec.Run reproduces the
// Backoff results recorded from the CD runner called on a fresh engine
// (testGraph(11), seeds 1-3) before the model moved behind the door,
// and counts as one scalar run each. Silent and Informed were added
// later, derived from the five recorded counts: every node transmits,
// receives, collides or hears silence each round, so Silent is
// n·rounds − tx − successes − collisions, and a completed run ends with
// Informed = n.
func TestRunFeedbackGolden(t *testing.T) {
	golden := []struct {
		seed       uint64
		rounds     int
		stats      trace.Counters
		informedAt uint64
	}{
		{1, 28, trace.Counters{Rounds: 28, Transmissions: 325, Successes: 1376, Collisions: 470, Silent: 6229, NewlyInformed: 299, Informed: 300}, 0xfc8ab6b6fe64ba4e},
		{2, 47, trace.Counters{Rounds: 47, Transmissions: 448, Successes: 1818, Collisions: 659, Silent: 11175, NewlyInformed: 299, Informed: 300}, 0x2cf8b3c9bc98ec0f},
		{3, 50, trace.Counters{Rounds: 50, Transmissions: 392, Successes: 1715, Collisions: 564, Silent: 12329, NewlyInformed: 299, Informed: 300}, 0xa20fef2b65670396},
	}
	x := exec.New()
	g := testGraph(t, 11)
	for _, want := range golden {
		res, err := x.Run(context.Background(), cdReq(g), xrand.New(want.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Rounds != want.rounds || res.Informed != testN || res.N != testN ||
			res.Stats != want.stats || informedAtHash(res.InformedAt) != want.informedAt {
			t.Errorf("seed %d: exec.Run = rounds %d stats %+v informedAt %#x, want rounds %d stats %+v informedAt %#x",
				want.seed, res.Rounds, res.Stats, informedAtHash(res.InformedAt), want.rounds, want.stats, want.informedAt)
		}
	}
	if st := x.Snapshot(); st.Scalar.Runs != 3 || st.Scalar.Trials != 3 || st.Schedule.Runs != 0 || st.Lanes.Runs != 0 {
		t.Errorf("counters = %+v, want three scalar runs", st)
	}
}

// TestRunFeedbackPooled: pooled CD runs (a miss, then a hit on the
// dirty engine) and a caller-engine run equal the fresh-engine run
// field for field.
func TestRunFeedbackPooled(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 12)
	fresh, err := x.Run(context.Background(), cdReq(g), xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		req := cdReq(g)
		req.Pool = true
		got, err := x.Run(context.Background(), req, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if d := oracle.Compare(got, fresh); d != "" {
			t.Fatalf("pooled run %d differs from the fresh run:\n%s", i, d)
		}
	}
	if st := x.Snapshot(); st.Scalar.PoolMisses != 1 || st.Scalar.PoolHits != 1 {
		t.Errorf("pool counters = %+v, want one miss then one hit", st.Scalar)
	}

	req := cdReq(g)
	req.Engine = radio.NewEngine(g, 5, radio.StrictInformed)
	if _, err := radio.RunCDProtocolContext(context.Background(), req.Engine, protocols.NewBackoff(testN), 3, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	got, err := x.Run(context.Background(), req, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Compare(got, fresh); d != "" {
		t.Fatalf("caller-engine run differs from the fresh run:\n%s", d)
	}
}

// cancelAfter cancels its context once the engine reports round k.
type cancelAfter struct {
	trace.Counters
	k      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Round(r trace.RoundRecord) {
	c.Counters.Round(r)
	if r.Round == c.k {
		c.cancel()
	}
}

// TestRunFeedbackCanceled: a CD run canceled mid-way returns the
// partial Result after the canceling round with an error wrapping
// radio.ErrCanceled, and its observer still sees the run end.
func TestRunFeedbackCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAfter{k: 5, cancel: cancel}
	req := cdReq(testGraph(t, 13))
	req.Observer = obs
	res, err := exec.New().Run(ctx, req, xrand.New(1))
	if !errors.Is(err, radio.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.Rounds != 5 || res.Completed || res.Informed < 1 || len(res.InformedAt) != testN {
		t.Errorf("partial result = rounds %d completed %v informed %d, want the state after round 5",
			res.Rounds, res.Completed, res.Informed)
	}
	if obs.Runs != 1 || obs.Rounds != 5 || obs.Informed != res.Informed {
		t.Errorf("observer = %+v, want one run of 5 rounds ending at %d informed", obs.Counters, res.Informed)
	}
}

// pairCounter records a run and counts its BeginRun/EndRun calls.
type pairCounter struct {
	trace.Recorder
	begins, ends int
}

func (p *pairCounter) BeginRun(info trace.RunInfo) {
	p.begins++
	p.Recorder.BeginRun(info)
}

func (p *pairCounter) EndRun(s trace.Summary) {
	p.ends++
	p.Recorder.EndRun(s)
}

// TestRunFeedbackObserver: Request.Observer sees exactly one
// BeginRun/EndRun pair around a CD run, and its round records add up to
// the Result.
func TestRunFeedbackObserver(t *testing.T) {
	obs := &pairCounter{}
	req := cdReq(testGraph(t, 14))
	req.Observer = obs
	res, err := exec.New().Run(context.Background(), req, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if obs.begins != 1 || obs.ends != 1 {
		t.Fatalf("BeginRun x%d, EndRun x%d, want one each", obs.begins, obs.ends)
	}
	if obs.Info.Sources != 1 || obs.Info.MaxRounds != req.MaxRounds || obs.Info.N != testN {
		t.Errorf("RunInfo = %+v", obs.Info)
	}
	if len(obs.Records) != res.Rounds || obs.Summary.Rounds != res.Rounds ||
		obs.Summary.Completed != res.Completed || obs.Summary.Collisions != res.Stats.Collisions {
		t.Errorf("recorded %d rounds, summary %+v; result rounds %d stats %+v",
			len(obs.Records), obs.Summary, res.Rounds, res.Stats)
	}
}

// TestFeedbackRefused: a CD protocol next to a protocol or a schedule
// is an error, and the protocol-only paths (Time, RunSeeds) refuse CD
// requests; none of them counts a run.
func TestFeedbackRefused(t *testing.T) {
	x := exec.New()
	g := testGraph(t, 15)

	withProto := cdReq(g)
	withProto.Protocol = core.NewDistributedProtocol(g.N(), testD)
	if _, err := x.Run(context.Background(), withProto, xrand.New(1)); err == nil {
		t.Error("Run accepted Feedback together with Protocol")
	}
	withSched := cdReq(g)
	withSched.Schedule = testSchedule(t, g)
	if _, err := x.Run(context.Background(), withSched, xrand.New(1)); err == nil {
		t.Error("Run accepted Feedback together with Schedule")
	}
	if _, err := x.Time(context.Background(), cdReq(g), xrand.New(1)); err == nil {
		t.Error("Time accepted a Feedback request")
	}
	seeds := sweep.Seeds(4, 1)
	out := make([]int, len(seeds))
	if _, err := x.RunSeeds(context.Background(), cdReq(g), seeds, out); err == nil {
		t.Error("RunSeeds accepted a Feedback request")
	}
	if _, err := x.RunSeedsObserved(context.Background(), cdReq(g), seeds, make([]trace.Observer, len(seeds)), out); err == nil {
		t.Error("RunSeedsObserved accepted a Feedback request")
	}
	if st := x.Snapshot(); st != (exec.Stats{}) {
		t.Errorf("refused requests were counted: %+v", st)
	}
}

package radio

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestFeedbackString(t *testing.T) {
	cases := map[Feedback]string{
		FeedbackNone: "none", FeedbackSilence: "silence",
		FeedbackMessage: "message", FeedbackCollision: "collision",
		Feedback(9): "invalid",
	}
	for f, want := range cases {
		if f.String() != want {
			t.Fatalf("%d.String() = %q", f, f.String())
		}
	}
}

func TestRoundWithFeedbackObservations(t *testing.T) {
	// Gadget: 0-1, 0-2, 1-3, 2-3, plus isolated-ish 4 connected to 0.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(0, 4)
	g := b.Build()
	e := NewEngine(g, 0, StrictInformed)
	fb := make([]Feedback, 5)
	// Round 1: source transmits. 1, 2, 4 hear a message; 3 hears silence.
	if _, err := e.RoundWithFeedback([]int32{0}, fb); err != nil {
		t.Fatal(err)
	}
	if fb[0] != FeedbackNone {
		t.Fatalf("transmitter feedback %v", fb[0])
	}
	for _, v := range []int32{1, 2, 4} {
		if fb[v] != FeedbackMessage {
			t.Fatalf("node %d feedback %v, want message", v, fb[v])
		}
	}
	if fb[3] != FeedbackSilence {
		t.Fatalf("node 3 feedback %v, want silence", fb[3])
	}
	// Round 2: 1 and 2 transmit. 3 hears a collision; 0 hears a
	// collision too (both are its neighbours); 4 hears silence.
	if _, err := e.RoundWithFeedback([]int32{1, 2}, fb); err != nil {
		t.Fatal(err)
	}
	if fb[3] != FeedbackCollision || fb[0] != FeedbackCollision {
		t.Fatalf("collision feedback wrong: fb[3]=%v fb[0]=%v", fb[3], fb[0])
	}
	if fb[4] != FeedbackSilence {
		t.Fatalf("node 4 feedback %v", fb[4])
	}
	if fb[1] != FeedbackNone || fb[2] != FeedbackNone {
		t.Fatal("transmitters must observe none")
	}
}

func TestRoundWithFeedbackWrongLengthPanics(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, StrictInformed)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length feedback slice accepted")
		}
	}()
	_, _ = e.RoundWithFeedback([]int32{0}, make([]Feedback, 2))
}

// echoProtocol transmits exactly once, the round after hearing a message,
// for testing feedback plumbing.
type echoProtocol struct {
	fired map[int32]bool
}

func (p *echoProtocol) TransmitCD(v int32, round int, informedAt int32, prev Feedback, rng *xrand.Rand) bool {
	if v == 0 && round == 1 {
		return true
	}
	if prev == FeedbackMessage && !p.fired[v] {
		p.fired[v] = true
		return true
	}
	return false
}

func TestRunCDProtocolDeliversFeedback(t *testing.T) {
	// Path 0-1-2-3: echo forwarding moves the message one hop per round.
	g := gen.Path(4)
	e := NewEngine(g, 0, StrictInformed)
	res, err := RunCDProtocolContext(context.Background(), e, &echoProtocol{fired: map[int32]bool{}}, 20, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("echo relay incomplete: %d/4", res.Informed)
	}
	if res.Rounds != 3 {
		t.Fatalf("echo relay took %d rounds, want 3", res.Rounds)
	}
}

func TestRunCDProtocolRespectsBudget(t *testing.T) {
	g := gen.Path(5)
	e := NewEngine(g, 0, StrictInformed)
	silent := cdFunc(func(v int32, round int, at int32, prev Feedback, rng *xrand.Rand) bool {
		return false
	})
	res, err := RunCDProtocolContext(context.Background(), e, silent, 7, xrand.New(2))
	if err != nil || res.Completed || res.Rounds != 7 {
		t.Fatalf("budget not respected: rounds %d, err %v", res.Rounds, err)
	}
}

func TestRunCDProtocolCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(gen.Path(4), 0, StrictInformed)
	var c trace.Counters
	e.Attach(&c)
	res, err := RunCDProtocolContext(ctx, e, &echoProtocol{fired: map[int32]bool{}}, 20, xrand.New(1))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res.Rounds != 0 || res.Informed != 1 || c.Runs != 1 || c.Rounds != 0 {
		t.Fatalf("canceled before round 1: result %+v, counters %+v", res, c)
	}
}

type cdFunc func(v int32, round int, at int32, prev Feedback, rng *xrand.Rand) bool

func (f cdFunc) TransmitCD(v int32, round int, at int32, prev Feedback, rng *xrand.Rand) bool {
	return f(v, round, at, prev, rng)
}

package radio

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// recordRun attaches a fresh recorder to e for the duration of run and
// returns the rounds it recorded.
func recordRun(e *Engine, run func()) []trace.RoundRecord {
	var rec trace.Recorder
	e.Attach(&rec)
	defer e.Attach(nil)
	run()
	return rec.Records
}

func TestExecuteScheduleTrace(t *testing.T) {
	g := gen.Path(4)
	e := NewEngine(g, 0, StrictInformed)
	s := &Schedule{Sets: [][]int32{{0}, {1}, {2}}}
	var res Result
	var err error
	records := recordRun(e, func() { res, err = ExecuteScheduleOnContext(context.Background(), e, s) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 3 {
		t.Fatalf("result %+v", res)
	}
	if len(records) != 3 {
		t.Fatalf("trace has %d records", len(records))
	}
	for i, rec := range records {
		if rec.Round != i+1 {
			t.Fatalf("record %d has round %d", i, rec.Round)
		}
		if rec.Transmitters != 1 || rec.NewlyInformed != 1 {
			t.Fatalf("record %d: %+v", i, rec)
		}
		if rec.Informed != i+2 {
			t.Fatalf("record %d informed %d", i, rec.Informed)
		}
	}
}

func TestExecuteScheduleTraceStopsEarly(t *testing.T) {
	g := gen.Star(5)
	e := NewEngine(g, 0, StrictInformed)
	s := &Schedule{Sets: [][]int32{{0}, {1}, {2}}}
	var err error
	records := recordRun(e, func() { _, err = ExecuteScheduleOnContext(context.Background(), e, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("trace %d records after early completion", len(records))
	}
}

func TestExecuteScheduleTraceError(t *testing.T) {
	g := gen.Path(3)
	e := NewEngine(g, 0, StrictInformed)
	s := &Schedule{Sets: [][]int32{{2}}}
	var err error
	records := recordRun(e, func() { _, err = ExecuteScheduleOnContext(context.Background(), e, s) })
	if err == nil {
		t.Fatal("uninformed transmitter accepted")
	}
	if len(records) != 0 {
		t.Fatalf("rejected round recorded: %+v", records)
	}
}

func TestRunProtocolTraceMatchesUntraced(t *testing.T) {
	const n = 300
	g, _, ok := gen.ConnectedGnp(n, gen.PForDegree(n, 12), xrand.New(1), 50)
	if !ok {
		t.Skip("no connected sample")
	}
	p := ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1.0 / 12)
	})
	// Same seed: traced and untraced must agree exactly.
	e := NewEngine(g, 0, StrictInformed)
	var traced Result
	records := recordRun(e, func() { traced = runOn(e, p, 2000, xrand.New(7)) })
	plain := runFresh(g, 0, p, 2000, xrand.New(7))
	if traced.Rounds != plain.Rounds || traced.Informed != plain.Informed {
		t.Fatalf("traced %+v != plain %+v", traced.Rounds, plain.Rounds)
	}
	if len(records) != traced.Rounds {
		t.Fatalf("trace length %d != rounds %d", len(records), traced.Rounds)
	}
	// Informed counts must be non-decreasing and end at n.
	prev := 1
	for _, rec := range records {
		if rec.Informed < prev {
			t.Fatalf("informed decreased at round %d", rec.Round)
		}
		prev = rec.Informed
	}
	if traced.Completed && prev != n {
		t.Fatalf("final informed %d != n", prev)
	}
}

func TestRoundRecordString(t *testing.T) {
	s := trace.RoundRecord{Round: 3, Transmitters: 5, NewlyInformed: 2, Informed: 10}.String()
	for _, want := range []string{"round", "3", "5", "2", "10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("record string %q missing %q", s, want)
		}
	}
}

package trace_test

// External test package so the tests can drive the real engine
// (internal/radio imports internal/trace, not the reverse).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedRun executes the reference broadcast used by the golden test: the
// paper's 1/d-selective shape on a fixed G(n,p) sample and a fixed seed.
func fixedRun(obs trace.Observer) radio.Result {
	const n = 64
	const d = 6.0
	g := gen.Gnp(n, d/n, xrand.New(2006))
	p := radio.ProtocolFunc(func(v int32, round int, at int32, r *xrand.Rand) bool {
		if round <= 2 {
			return true
		}
		return r.Bernoulli(1 / d)
	})
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: p, MaxRounds: 40, Observer: obs}, xrand.New(7))
	return res
}

// TestJSONLWriterGolden locks the JSONL byte format on a fixed seed: one
// begin line, one line per executed round, one end line. Regenerate with
// `go test ./internal/trace -run Golden -update` after an intentional
// format change.
func TestJSONLWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	res := fixedRun(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "broadcast.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL output diverged from golden file (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			buf.String(), string(want))
	}
	// Sanity: every line is valid JSON, and the line count is rounds+2.
	lines := 0
	rounds := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		lines++
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if m["type"] == "round" {
			rounds++
		}
	}
	if rounds != res.Rounds || lines != res.Rounds+2 {
		t.Fatalf("got %d lines / %d round lines for %d rounds", lines, rounds, res.Rounds)
	}
}

func TestJSONLWriterRoundsOnly(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	w.RoundsOnly = true
	res := fixedRun(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	got := strings.Count(buf.String(), "\n")
	if got != res.Rounds {
		t.Fatalf("%d lines for %d rounds", got, res.Rounds)
	}
	if strings.Contains(buf.String(), `"type":"begin"`) || strings.Contains(buf.String(), `"type":"end"`) {
		t.Fatal("RoundsOnly emitted begin/end lines")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, os.ErrClosed
}

func TestJSONLWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	w := trace.NewJSONLWriter(fw)
	fixedRun(w)
	if w.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	// bufio coalesces writes, so the underlying writer sees at most a
	// couple of attempts — the writer must stop after the first failure
	// rather than retry per round.
	if fw.n > 2 {
		t.Fatalf("underlying writer called %d times after error", fw.n)
	}
}

func TestCountersAggregateAndMerge(t *testing.T) {
	var a, b trace.Counters
	fixedRun(&a)
	fixedRun(&b)
	if a != b {
		t.Fatalf("identical runs produced different counters: %+v vs %+v", a, b)
	}
	merged := a
	merged.Add(b)
	if merged.Runs != 2 || merged.Rounds != 2*a.Rounds || merged.Transmissions != 2*a.Transmissions {
		t.Fatalf("merge wrong: %+v", merged)
	}
	if merged.Informed != a.Informed {
		t.Fatalf("merged informed gauge %d, want %d", merged.Informed, a.Informed)
	}
	a.Reset()
	if a != (trace.Counters{}) {
		t.Fatalf("reset left %+v", a)
	}
}

func TestMultiComposesAndCollapses(t *testing.T) {
	if trace.Multi() != nil || trace.Multi(nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	var c trace.Counters
	if trace.Multi(nil, &c) != trace.Observer(&c) {
		t.Fatal("single-observer Multi should collapse to the observer itself")
	}
	var c2 trace.Counters
	var rec trace.Recorder
	m := trace.Multi(&c2, nil, &rec)
	res := fixedRun(m)
	if c2.Rounds != res.Rounds || len(rec.Records) != res.Rounds {
		t.Fatalf("fan-out incomplete: counters %d rounds, recorder %d records, run %d rounds",
			c2.Rounds, len(rec.Records), res.Rounds)
	}
	if !rec.Began || !rec.Ended {
		t.Fatal("begin/end not fanned out")
	}
}

// TestFrontierProfileMatchesLayers: under pure flooding on a path the
// frontier advances exactly one BFS layer per round.
func TestFrontierProfileMatchesLayers(t *testing.T) {
	g := gen.Path(8)
	flood := radio.ProtocolFunc(func(int32, int, int32, *xrand.Rand) bool { return true })
	var f trace.FrontierProfile
	f.Degree = 1
	res, _ := exec.Run(context.Background(), &exec.Request{Graph: g, Sources: []int32{0}, Protocol: flood, MaxRounds: 20, Observer: &f}, xrand.New(1))
	if !res.Completed {
		t.Fatalf("flooding on a path must complete: %+v", res)
	}
	if f.Rounds() != res.Rounds {
		t.Fatalf("profile rounds %d != run rounds %d", f.Rounds(), res.Rounds)
	}
	if f.N != 8 || f.Growth[0] != 1 {
		t.Fatalf("profile start %+v", f)
	}
	for i := 1; i <= res.Rounds; i++ {
		if f.Growth[i] != 1 {
			t.Fatalf("round %d frontier growth %d, want 1 (path flooding)", i, f.Growth[i])
		}
		if f.Cumulative[i] != i+1 {
			t.Fatalf("round %d cumulative %d, want %d", i, f.Cumulative[i], i+1)
		}
	}
	for i, r := range f.GrowthRatios() {
		if r != 1 {
			t.Fatalf("growth ratio %d = %v, want 1", i, r)
		}
	}
	if f.Predicted(3) != 1 {
		t.Fatalf("predicted(3) = %v with d=1", f.Predicted(3))
	}
	f.Reset()
	if f.Rounds() != 0 || f.N != 0 {
		t.Fatalf("reset left %+v", f)
	}
}

func TestRoundRecordPartition(t *testing.T) {
	r := trace.RoundRecord{Transmitters: 3, Successes: 2, Collisions: 4, Silent: 5}
	if r.Listeners() != 11 {
		t.Fatalf("listeners %d", r.Listeners())
	}
	s := r.String()
	for _, want := range []string{"3", "2", "4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() %q missing %q", s, want)
		}
	}
}

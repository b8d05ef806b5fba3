package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, s.Workloads[i].Name, w.name)
		}
	}
	if !reflect.DeepEqual(s.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", s.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", s.PerLayer, perLayer)
	}
}

// run executes radiobench in-process and returns its parsed last line.
func run(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := benchMain(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s%s", args, err, out.String(), errOut.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: exit %d, result %+v\n%s", args, code, res, errOut.String())
	}
	return res
}

func checkMetrics(t *testing.T, name string, res result, defs []metric) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", name, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: metric %s printed as %+v, want unit %s", name, m.Name, v, m.Unit)
		}
	}
}

// TestSmoke runs every workload on tiny inputs, untraced, and one traced
// run with the per-layer ledger: every metric BENCHMARK.json names is
// printed with its unit and every check passes.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	for _, w := range s.Workloads {
		res := run(t, "-workload", w.Name, "-scale", "smoke", "-seconds", "0.2", "-trace", "0", "-workdir", dir)
		checkMetrics(t, w.Name, res, s.EndToEnd)
		for name, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, name, v.Value)
			}
		}
	}
	res := run(t, "-workload", "batch-lanes", "-scale", "smoke", "-seconds", "0.2", "-trace", "1", "-workdir", dir)
	checkMetrics(t, "traced batch-lanes", res, s.PerLayer)

	f, err := os.Open(filepath.Join(dir, "spans-batch-lanes-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.ID == 0 || sp.EndNs < sp.StartNs || sp.Workload != "batch-lanes" {
			t.Fatalf("bad span %q: %v", sc.Text(), err)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"repro.RunBatch", "ledger", "lanes.RunBlocks", "exec.RunSeeds", "serve.POST /v1/run", "cluster.Coordinator.Run"} {
		if !names[want] {
			t.Errorf("no %q span", want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < minRuns; i++ {
			m := map[string]value{}
			for _, def := range endToEnd {
				m[def.Name] = value{Value: 100 + float64(i), Unit: def.Unit}
			}
			m["trials_per_s"] = value{Value: rate + float64(i), Unit: "trials/s"}
			r := record{Workload: "serve-hot", Seed: uint64(i), Result: result{Correct: true, Attempted: 10, Metrics: m}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.json", 1000), write("b.json", 1001), write("c.json", 700)
	var out bytes.Buffer
	if code := compareMain([]string{a, same}, &out, &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{a, slow}, &out, &out); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("30%% slower set: exit %d\n%s", code, out.String())
	}
}

// Command benchrecord turns `go test -bench` output into the repository's
// BENCH_N.json performance records, and gates performance ratios in CI.
//
// Record mode (the default) reads benchmark output on stdin (or -in),
// and writes a BENCH_N.json-shaped document to -out: environment lines
// (goos/goarch/cpu) are taken from the benchmark output itself and the
// date from -date, so the same input always produces the same record —
// regeneration is deterministic and diffable:
//
//	go test -run '^$' -bench 'BenchmarkBroadcastReuse$|BenchmarkLaneBroadcast' \
//	    -benchmem -benchtime 2s . > bench.out
//	go run ./scripts/benchrecord -in bench.out -date 2026-08-08 \
//	    -comment "..." -ref-name "..." -ref-ns 36789982 -accept-ratio 6 -out BENCH_3.json
//
// The acceptance section compares the lane benchmark's ns/trial metric
// (-lane-bench, default BenchmarkLaneBroadcast) against the fixed
// reference trial cost -ref-ns; the tool exits nonzero when the speedup
// is below -accept-ratio, so recording and enforcing the acceptance bar
// are the same step.
//
// Check mode (-check) asserts a same-run ratio instead of writing JSON:
// the scalar benchmark's ns/op divided by the lane benchmark's ns/trial
// must be at least -min-ratio. Because both numbers come from one run on
// one machine, the gate is portable to CI hardware of any speed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	What        string  `json:"what,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerTrial  float64 `json:"ns_per_trial,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// record is the BENCH_N.json document shape (see BENCH_2.json).
type record struct {
	Comment    string         `json:"comment"`
	Recorded   string         `json:"recorded"`
	Goos       string         `json:"goos"`
	Goarch     string         `json:"goarch"`
	CPU        string         `json:"cpu"`
	Go         string         `json:"go"`
	Workload   map[string]any `json:"workload"`
	Reference  map[string]any `json:"reference,omitempty"`
	Acceptance map[string]any `json:"acceptance,omitempty"`
	Benchmarks []*benchResult `json:"benchmarks"`
}

// whatFor annotates the benchmarks this repository records.
var whatFor = map[string]string{
	"BenchmarkBroadcastReuse":        "scalar reference: radio.BroadcastTimeOnContext on a caller-owned engine, sampled fast path, one trial per op",
	"BenchmarkLaneBroadcast":         "bit-parallel lane engine: 64 trials per Engine.Run call on the same workload; ns/trial is the headline metric",
	"BenchmarkLaneBroadcastSmall":    "lane engine at n=10000 d=25 for the EXPERIMENTS.md throughput table",
	"BenchmarkLaneBroadcastParallel": "GOMAXPROCS lane engines on one graph running 64-lane blocks concurrently (batch-lanes' shape); ns/trial is wall time over all trials",
	"BenchmarkBroadcastReusePerNode": "per-node sampling opt-out (pre-fast-path behaviour)",
	"BenchmarkFacadeRunBatch":        "facade RunBatch through the unified execution layer (internal/exec): classification, seed derivation and lane-engine construction included; ns/trial vs BenchmarkLaneBroadcast is the executor overhead",
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "record output file (default stdout)")
	date := flag.String("date", "", "recorded date, YYYY-MM-DD (required in record mode: keeps regeneration deterministic)")
	comment := flag.String("comment", "", "record comment")
	goVersion := flag.String("go", "go1.24.0", "toolchain version stamped into the record")
	refName := flag.String("ref-name", "", "acceptance reference description")
	refNs := flag.Float64("ref-ns", 0, "acceptance reference cost in ns per trial")
	acceptRatio := flag.Float64("accept-ratio", 0, "minimum speedup of -lane-bench ns/trial vs -ref-ns (0 = no gate)")
	laneBench := flag.String("lane-bench", "BenchmarkLaneBroadcast", "benchmark whose ns/trial metric is the headline")
	scalarBench := flag.String("scalar-bench", "BenchmarkBroadcastReuse", "scalar benchmark for -check's same-run ratio")
	check := flag.Bool("check", false, "check mode: assert scalar ns/op / lane ns/trial >= -min-ratio, write no record")
	minRatio := flag.Float64("min-ratio", 3, "minimum same-run speedup accepted by -check")
	baseBench := flag.String("base-bench", "", "baseline benchmark for the same-run overhead gate: -lane-bench ns/trial over this benchmark's ns/trial must stay <= -max-overhead")
	maxOverhead := flag.Float64("max-overhead", 0, "maximum same-run overhead ratio accepted when -base-bench is set (0 = no gate)")
	n := flag.Int("n", 100000, "workload graph size")
	d := flag.Float64("d", 25, "workload expected degree")
	flag.Parse()

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	env, results, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *check {
		if *baseBench != "" {
			// Overhead form: both numbers are same-run ns/trial metrics,
			// so the gate is portable to CI hardware of any speed.
			over, base := overheadRatio(results, *laneBench, *baseBench)
			fmt.Printf("benchrecord: %s %.0f ns/trial vs %s %.0f ns/trial: %.3fx overhead (gate %.2fx)\n",
				*laneBench, base*over, *baseBench, base, over, *maxOverhead)
			if *maxOverhead > 0 && over > *maxOverhead {
				fatal(fmt.Errorf("overhead %.3fx above the %.2fx gate", over, *maxOverhead))
			}
			return
		}
		scalar := find(results, *scalarBench)
		lane := find(results, *laneBench)
		if scalar == nil || lane == nil {
			fatal(fmt.Errorf("check needs both %s and %s in the input", *scalarBench, *laneBench))
		}
		if lane.NsPerTrial == 0 {
			fatal(fmt.Errorf("%s reports no ns/trial metric", *laneBench))
		}
		ratio := scalar.NsPerOp / lane.NsPerTrial
		fmt.Printf("benchrecord: %s %.0f ns/op vs %s %.0f ns/trial: %.2fx (gate %.2fx)\n",
			*scalarBench, scalar.NsPerOp, *laneBench, lane.NsPerTrial, ratio, *minRatio)
		if ratio < *minRatio {
			fatal(fmt.Errorf("lane speedup %.2fx below the %.2fx gate", ratio, *minRatio))
		}
		return
	}

	if *date == "" {
		fatal(fmt.Errorf("-date is required in record mode"))
	}
	rec := &record{
		Comment:  *comment,
		Recorded: *date,
		Goos:     env["goos"],
		Goarch:   env["goarch"],
		CPU:      env["cpu"],
		Go:       *goVersion,
		Workload: map[string]any{
			"n":               *n,
			"expected_degree": *d,
		},
		Benchmarks: results,
	}
	if *refNs > 0 {
		rec.Reference = map[string]any{
			"name":      *refName,
			"ns_per_op": int64(*refNs),
		}
		lane := find(results, *laneBench)
		if lane == nil || lane.NsPerTrial == 0 {
			fatal(fmt.Errorf("acceptance needs %s with a ns/trial metric", *laneBench))
		}
		speedup := *refNs / lane.NsPerTrial
		rec.Acceptance = map[string]any{
			"speedup_vs_reference": round2(speedup),
			"note": fmt.Sprintf("%s at %.0f ns/trial vs the %.0f ns reference = %.1fx (criterion: >= %.1fx)",
				*laneBench, lane.NsPerTrial, *refNs, speedup, *acceptRatio),
		}
		if *acceptRatio > 0 && speedup < *acceptRatio {
			fatal(fmt.Errorf("lane speedup %.2fx below the %.2fx acceptance bar", speedup, *acceptRatio))
		}
	}
	if *baseBench != "" {
		over, base := overheadRatio(results, *laneBench, *baseBench)
		if rec.Acceptance == nil {
			rec.Acceptance = map[string]any{}
		}
		rec.Acceptance["overhead_vs_base"] = round2(over)
		rec.Acceptance["overhead_note"] = fmt.Sprintf("%s at %.0f ns/trial over %s at %.0f ns/trial in the same run = %.3fx (criterion: <= %.2fx)",
			*laneBench, base*over, *baseBench, base, over, *maxOverhead)
		if *maxOverhead > 0 && over > *maxOverhead {
			fatal(fmt.Errorf("overhead %.3fx above the %.2fx acceptance bar", over, *maxOverhead))
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
}

// parse reads `go test -bench` output: environment header lines
// (goos/goarch/cpu) and benchmark result lines. A benchmark line is
//
//	BenchmarkName-8   62   36789982 ns/op   4089250 ns/trial   45259 B/op   1 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parse(r io.Reader) (env map[string]string, results []*benchResult, err error) {
	env = map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name, _, _ := strings.Cut(f[0], "-")
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		res := &benchResult{Name: name, What: whatFor[name], Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "ns/trial":
				res.NsPerTrial = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		results = append(results, res)
	}
	return env, results, sc.Err()
}

// overheadRatio returns the lane benchmark's ns/trial divided by the
// base benchmark's ns/trial (both from the same run) and the base value.
func overheadRatio(results []*benchResult, laneName, baseName string) (ratio, base float64) {
	lane := find(results, laneName)
	b := find(results, baseName)
	if lane == nil || b == nil {
		fatal(fmt.Errorf("overhead gate needs both %s and %s in the input", laneName, baseName))
	}
	if lane.NsPerTrial == 0 || b.NsPerTrial == 0 {
		fatal(fmt.Errorf("overhead gate needs ns/trial metrics on both %s and %s", laneName, baseName))
	}
	return lane.NsPerTrial / b.NsPerTrial, b.NsPerTrial
}

func find(results []*benchResult, name string) *benchResult {
	for _, r := range results {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrecord:", err)
	os.Exit(1)
}

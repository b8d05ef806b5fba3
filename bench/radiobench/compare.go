package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// minRuns is the fewest untraced runs per workload compare accepts on
// each side.
const minRuns = 5

// compareMain compares two sets of untraced runs written with -record:
// A, the baseline, and B. For every workload and end-to-end metric it
// prints each side's median and quartiles, B's change, and a verdict:
// "within bound", "REGRESSION" (B worse by more than the metric's bound),
// or "unresolved" when either side's quartile spread is wider than the
// bound, unless every run of B beats every run of A. It exits 1 unless
// every row is within bound or better.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: radiobench compare A.json B.json")
		return 2
	}
	a, errA := readRecords(args[0])
	b, errB := readRecords(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "radiobench compare:", err)
		return 2
	}
	ok := true
	fmt.Fprintf(stdout, "%-18s %-19s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) < minRuns || len(rb) < minRuns {
			fmt.Fprintf(stdout, "%-18s needs %d runs a side, has %d and %d\n", w.name, minRuns, len(ra), len(rb))
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) < minRuns || len(vb) < minRuns {
				fmt.Fprintf(stdout, "%-18s %-19s missing from some runs\n", w.name, m.Name)
				ok = false
				continue
			}
			verdict, fine := judge(m, va, vb)
			ok = ok && fine
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%-18s %-19s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%%  %s\n",
				w.name, m.Name, a2, a1, a3, b2, b1, b3, 100*(b2-a2)/a2, verdict)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		if fa > 0 || fb > 0 {
			fmt.Fprintf(stdout, "%-18s failed operations: A %.4g, B %.4g of attempted\n", w.name, fa, fb)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// judge classifies B against A for one metric.
func judge(m metric, a, b []float64) (string, bool) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	worse := (b2 - a2) / a2
	if m.Better == "higher" {
		worse = -worse
	}
	spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		if allBetter(m, a, b) {
			return "better in every run", true
		}
		return fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*spreadA, 100*spreadB, 100*m.Bound), false
	case worse > m.Bound:
		return fmt.Sprintf("REGRESSION (worse by %.1f%% > bound %.0f%%)", 100*worse, 100*m.Bound), false
	default:
		return fmt.Sprintf("within bound %.0f%% (spread %.1f%% / %.1f%%)", 100*m.Bound, 100*spreadA, 100*spreadB), true
	}
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m metric, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedFrac(rs []record) float64 {
	att, failed := 0, 0
	for _, r := range rs {
		att += r.Result.Attempted
		failed += r.Result.Failed
	}
	return float64(failed) / float64(att)
}

// readRecords reads a file of records, as -record appends them, and
// groups the untraced ones by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	dec := json.NewDecoder(f)
	for {
		var r record
		err := dec.Decode(&r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
}

// Command experiments runs the reproduction experiments E1–E23 (DESIGN.md
// §3) and prints their result tables. EXPERIMENTS.md records the
// medium-scale output of this tool.
//
// Usage:
//
//	experiments [-scale small|medium|full] [-seed N] [-trials N]
//	            [-format text|markdown|csv] [-list] [-verify]
//	            [-trace] [-trace-out FILE] [E1 E2 ...]
//
// With no experiment IDs, every experiment runs in order. -trace runs one
// scale-sized instrumented broadcast instead and prints its per-round
// measured-vs-predicted collision table (the single-run form of E23);
// -trace-out additionally streams the round records as JSON Lines to FILE.
//
// E1, E2 and E4 run the campaign presets e1, e2 and e4 in memory. The
// same sweeps run checkpointed and resumable through cmd/campaign, with
// the same numbers at the same -scale/-seed/-trials:
//
//	go run ./cmd/campaign spec -preset e1 -scale full | go run ./cmd/campaign run -spec - -out ck
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small, medium or full")
	seed := flag.Uint64("seed", 2006, "base random seed (2006 reproduces EXPERIMENTS.md)")
	trials := flag.Int("trials", 0, "override per-point trial count (0 = scale default)")
	format := flag.String("format", "text", "output format: text, markdown, csv or json")
	list := flag.Bool("list", false, "list experiments and exit")
	verify := flag.Bool("verify", false, "run the reproduction scorecard (pass/fail per claim) and exit")
	traceFlag := flag.Bool("trace", false, "run one instrumented broadcast and print its per-round collision table")
	traceOut := flag.String("trace-out", "", "with -trace, also write the round records as JSON Lines to this file (implies -trace)")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		fmt.Printf("\ncampaign presets (resumable checkpointed sweeps, see cmd/campaign): %v\n",
			campaign.Presets())
		return
	}

	var scale exp.Scale
	switch *scaleFlag {
	case "small":
		scale = exp.Small
	case "medium":
		scale = exp.Medium
	case "full":
		scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	cfg := exp.Config{Scale: scale, Seed: *seed, Trials: *trials}

	if *verify {
		checks := exp.Scorecard(cfg)
		failures := 0
		for _, c := range checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
				failures++
			}
			fmt.Printf("[%s] %-4s %s\n       %s\n", status, c.ID, c.Claim, c.Detail)
		}
		fmt.Printf("\nscorecard: %d/%d claims reproduced\n", len(checks)-failures, len(checks))
		if failures > 0 {
			os.Exit(1)
		}
		return
	}

	if *traceFlag || *traceOut != "" {
		var obs trace.Observer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			jw := trace.NewJSONLWriter(f)
			obs = jw
			defer func() {
				if err := jw.Err(); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", *traceOut, err)
					os.Exit(1)
				}
				fmt.Printf("\ntrace written to %s\n", *traceOut)
			}()
		}
		t := exp.CollisionTraceRun(cfg, obs)
		printTable(t, *format)
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		e, ok := exp.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n", e.Claim)
		start := time.Now()
		tables := e.Run(cfg)
		elapsed := time.Since(start)
		for ti, t := range tables {
			printTable(t, *format)
			if *outDir != "" {
				name := filepath.Join(*outDir, fmt.Sprintf("%s_%d.csv", e.ID, ti+1))
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("    (%s, scale=%s, %.1fs)\n\n", e.ID, scale, elapsed.Seconds())
	}
}

func printTable(t *table.Table, format string) {
	switch format {
	case "markdown":
		fmt.Println(t.Markdown())
	case "csv":
		fmt.Println(t.CSV())
	case "json":
		j, err := t.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(j)
	default:
		fmt.Println(t.String())
	}
}

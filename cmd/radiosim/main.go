// Command radiosim simulates one radio broadcast on a random graph and
// prints a per-round progress trace.
//
// Usage:
//
//	radiosim [-n N] [-d D] [-algo distributed|centralized|decay|aloha]
//	         [-src V] [-seed S] [-trace] [-trace-out FILE] [-json]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -trace prints the per-round records; -trace-out streams them as JSON
// Lines (one begin record, one record per round, one end record) to FILE
// for offline analysis. -json replaces the human-readable output with a
// single machine-readable JSON summary object on stdout (progress chatter
// moves to stderr), for scripting:
//
//	radiosim -n 1000 -d 15 -json | jq .rounds
//
// On failure in -json mode stdout stays empty — diagnostics go to stderr
// and the exit status is nonzero — so `radiosim -json | jq` can never
// feed half a summary into a pipeline.
//
// -cpuprofile and -memprofile write pprof profiles
// covering the simulation (graph sampling through completion), for
// hot-path work on the engine:
//
//	radiosim -n 100000 -d 25 -cpuprofile cpu.out
//	go tool pprof -top cpu.out
//
// Example:
//
//	radiosim -n 100000 -d 25 -algo centralized -trace
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/xrand"
)

// summary is the machine-readable run summary emitted by -json: one JSON
// object holding the graph that was sampled, the outcome of the broadcast
// and the paper's round bounds for comparison. Fields are stable; scripts
// may rely on them.
type summary struct {
	Algo string `json:"algo"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// D is the requested expected average degree d = pn; DegreeMean is
	// what the sampled graph actually realized.
	D    float64 `json:"d"`
	Src  int     `json:"src"`
	Seed uint64  `json:"seed"`

	Attempts           int     `json:"attempts"` // connected-graph sampling attempts
	DegreeMin          int     `json:"degree_min"`
	DegreeMean         float64 `json:"degree_mean"`
	DegreeMax          int     `json:"degree_max"`
	SourceEccentricity int     `json:"source_eccentricity"`

	Completed     bool `json:"completed"`
	Rounds        int  `json:"rounds"`
	Informed      int  `json:"informed"`
	Transmissions int  `json:"transmissions"`
	Successes     int  `json:"deliveries"`
	Collisions    int  `json:"collisions"`

	BoundCentralized float64 `json:"bound_centralized"`
	BoundDistributed float64 `json:"bound_distributed"`
}

// errUsage marks command-line errors (exit status 2, like flag's own).
var errUsage = errors.New("usage error")

func main() {
	// All real work lives in run so its defers — profile flushing, file
	// closes — execute before the process exits (os.Exit here would skip
	// any defer still pending, silently truncating a -cpuprofile).
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "radiosim: %v\n", err)
		}
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes one simulation. In -json mode stdout carries exactly one
// JSON summary object — or, on error, nothing at all: every failure path
// returns before the summary is marshalled, diagnostics go to stderr via
// the returned error, and the human-readable chatter was already routed
// to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("radiosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10000, "number of nodes")
	d := fs.Float64("d", 20, "expected average degree d = pn")
	algo := fs.String("algo", "distributed", "algorithm: distributed, centralized, decay, aloha")
	src := fs.Int("src", 0, "broadcast source vertex")
	seed := fs.Uint64("seed", 1, "random seed")
	showTrace := fs.Bool("trace", false, "print per-round informed counts")
	traceOut := fs.String("trace-out", "", "write per-round records as JSON Lines to this file")
	saveSched := fs.String("save-schedule", "", "write the centralized schedule to this file")
	jsonOut := fs.Bool("json", false, "print one machine-readable JSON summary object instead of text")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	// In -json mode stdout carries exactly one JSON object; everything
	// human-readable (progress, traces, sparkline) moves to stderr.
	out := stdout
	if *jsonOut {
		out = stderr
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var memProfErr error
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				memProfErr = err
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				memProfErr = err
			}
		}()
	}
	err := simulate(out, stdout,
		*n, *d, *algo, *src, *seed, *showTrace, *traceOut, *saveSched, *jsonOut)
	if err != nil {
		return err
	}
	return memProfErr
}

// simulate is the body of run, split out so the heap-profile defer in run
// brackets the whole simulation.
func simulate(out, stdout io.Writer,
	n int, d float64, algo string, src int, seed uint64,
	showTrace bool, traceOut, saveSched string, jsonOut bool) error {
	rng := xrand.New(seed)
	fmt.Fprintf(out, "sampling connected G(n=%d, p=d/n) with d=%.1f ...\n", n, d)
	g, tries, ok := gen.ConnectedGnp(n, gen.PForDegree(n, d), rng, 100)
	if !ok {
		return errors.New("could not sample a connected graph; increase -d")
	}
	if src < 0 || src >= g.N() {
		return fmt.Errorf("%w: -src %d outside [0,%d)", errUsage, src, g.N())
	}
	st := g.Degrees()
	ecc := graph.Eccentricity(g, int32(src))
	fmt.Fprintf(out, "graph: %v  (attempt %d, degrees min=%d mean=%.1f max=%d, source ecc=%d)\n",
		g, tries, st.Min, st.Mean, st.Max, ecc)

	var jw *trace.JSONLWriter
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = trace.NewJSONLWriter(f)
	}

	// Every run is observed by an in-memory recorder (for -trace and the
	// progress line) next to the optional JSONL writer.
	var rec trace.Recorder
	req := &exec.Request{Graph: g, Sources: []int32{int32(src)}, Observer: &rec}
	if jw != nil {
		req.Observer = trace.Multi(jw, &rec)
	}
	switch algo {
	case "centralized":
		sched, tr, err := core.BuildCentralizedSchedule(g, int32(src), d, core.DefaultCentralizedConfig(seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "schedule phases: %s\n", tr)
		if saveSched != "" {
			f, err := os.Create(saveSched)
			if err != nil {
				return err
			}
			if _, err := sched.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "schedule written to %s\n", saveSched)
		}
		req.Schedule = sched
	case "distributed":
		req.Protocol = core.NewDistributedProtocol(n, d)
	case "decay":
		req.Protocol = protocols.NewDecay(n)
	case "aloha":
		req.Protocol = protocols.NewAloha(d)
	default:
		return fmt.Errorf("%w: unknown algorithm %q", errUsage, algo)
	}
	req.MaxRounds = core.MaxRoundsFor(n)
	res, err := exec.Run(context.Background(), req, rng)
	if err != nil {
		return err
	}

	if showTrace {
		for _, r := range rec.Records {
			fmt.Fprintln(out, r)
		}
	}
	if jw != nil {
		if err := jw.Err(); err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
		fmt.Fprintf(out, "trace written to %s (%d records)\n", traceOut, len(rec.Records))
	}
	if len(rec.Records) > 1 {
		curve := make([]float64, len(rec.Records))
		for i, r := range rec.Records {
			curve[i] = float64(r.Informed)
		}
		fmt.Fprintf(out, "\nprogress %s (informed per round)\n", viz.Sparkline(curve))
	}

	if jsonOut {
		b, err := json.MarshalIndent(summary{
			Algo:               algo,
			N:                  g.N(),
			M:                  g.M(),
			D:                  d,
			Src:                src,
			Seed:               seed,
			Attempts:           tries,
			DegreeMin:          st.Min,
			DegreeMean:         st.Mean,
			DegreeMax:          st.Max,
			SourceEccentricity: ecc,
			Completed:          res.Completed,
			Rounds:             res.Rounds,
			Informed:           res.Informed,
			Transmissions:      res.Stats.Transmissions,
			Successes:          res.Stats.Successes,
			Collisions:         res.Stats.Collisions,
			BoundCentralized:   core.CentralizedBound(n, d),
			BoundDistributed:   core.DistributedBound(n),
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
		return nil
	}
	fmt.Fprintf(stdout, "\ncompleted=%v rounds=%d informed=%d/%d\n", res.Completed, res.Rounds, res.Informed, res.N)
	fmt.Fprintf(stdout, "stats: %d transmissions, %d clean deliveries, %d collisions\n",
		res.Stats.Transmissions, res.Stats.Successes, res.Stats.Collisions)
	fmt.Fprintf(stdout, "bounds: centralized %.1f, distributed (ln n) %.1f\n",
		core.CentralizedBound(n, d), core.DistributedBound(n))
	return nil
}

// Command campaign orchestrates resumable, fault-tolerant Monte-Carlo
// campaigns over the radio-broadcast simulators (see internal/campaign).
//
// Usage:
//
//	campaign spec   -preset e1|e4|collision-rate|scale|smoke|lane-smoke
//	                [-scale small|medium|full] [-seed S] [-trials N]
//	campaign run    -spec FILE -out DIR [-workers N] [-lanes N] [-resume]
//	                [-halt-after N] [-points LO:HI] [-json] [-quiet]
//	campaign resume -out DIR [-workers N] [-lanes N] [-json] [-quiet]
//	campaign report -out DIR [-json]
//	campaign merge  -out DIR [-allow-overlap] SRC1 SRC2 ...
//	campaign cluster -spec FILE -peers URL1,URL2 [-out DIR] [-addr A]
//	                 [-advertise URL] [-shard-points N] [-ttl D]
//	                 [-max-attempts N] [-leases-per-worker N] [-lanes N]
//	                 [-resume] [-json] [-quiet]
//
// `spec` prints a preset campaign spec as JSON (edit it, or write your
// own). `run` executes a spec, streaming completed trials into sharded
// JSONL checkpoint files under -out; interrupt it (^C, or -halt-after for
// a deterministic cut) and `resume` finishes exactly the missing trials —
// the final report is byte-identical to an uninterrupted run. `report`
// recomputes the report from a checkpoint without running anything.
// `merge` unions checkpoints of the same spec recorded by different
// machines (run with disjoint -points slices) into one directory; sources
// recording the same (point, trial) indicate overlapping slices and fail
// the merge unless -allow-overlap.
//
// `cluster` runs a campaign across a fleet of radiosimd workers: it
// slices the point grid into shards, offers time-bounded leases to the
// workers, heartbeat-tracks their liveness, reassigns expired or failed
// leases with bounded retries, and aggregates the returned samples into
// a report byte-identical to a local `campaign run` of the same spec —
// including runs where a worker is killed mid-shard. See internal/cluster
// and DESIGN.md §9.
//
// Fixed-graph points of the lane-capable kinds (distributed, decay,
// aloha) run on the bit-parallel lane engine, -lanes trials per block
// (0 = auto, 1 = force scalar). The report is byte-identical for every
// lane setting >= 2 and 0; scalar runs draw a different (but
// distributionally identical) stream, so a checkpoint records its engine
// and refuses to resume a lane-sensitive spec under the other one.
//
// Example — the kill-and-resume loop the CI smoke job runs:
//
//	campaign spec -preset smoke -seed 2006 > smoke.json
//	campaign run -spec smoke.json -out ck -halt-after 3
//	campaign run -spec smoke.json -out ck -resume -json > report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
)

// specJSON renders a spec as indented JSON with a trailing newline.
func specJSON(s *campaign.Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "resume":
		err = cmdRun(os.Args[2:], true)
	case "report":
		err = cmdReport(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  campaign spec   -preset NAME [-scale small|medium|full] [-seed S] [-trials N]
  campaign run    -spec FILE -out DIR [-workers N] [-lanes N] [-resume]
                  [-halt-after N] [-points LO:HI] [-json] [-quiet]
  campaign resume -out DIR [-workers N] [-lanes N] [-json] [-quiet]
  campaign report -out DIR [-json]
  campaign merge  -out DIR [-allow-overlap] SRC1 SRC2 ...
  campaign cluster -spec FILE -peers URL1,URL2 [-out DIR] [-addr A] [-advertise URL]
                   [-shard-points N] [-ttl D] [-max-attempts N]
                   [-leases-per-worker N] [-lanes N] [-resume] [-json] [-quiet]`)
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("campaign spec", flag.ExitOnError)
	preset := fs.String("preset", "", "preset name (required)")
	scale := fs.String("scale", "small", "ladder scale: small, medium or full")
	seed := fs.Uint64("seed", 2006, "campaign base seed")
	trials := fs.Int("trials", 0, "override per-point trial budget (0 = preset default)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: campaign spec -preset NAME [-scale small|medium|full] [-seed S] [-trials N]")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
Lane fast path: points whose trial sets "fixed_graph": true with kind
"distributed", "decay", "aloha" or "collision-rate" dispatch in
bit-parallel lane blocks
under 'campaign run -lanes' (0 = auto, 1 = force scalar). Every other
kind — and every fresh-graph point — runs on the scalar per-trial
engine regardless of -lanes. The 'lane-smoke' preset is an all-lane
grid for exercising this path.`)
	}
	fs.Parse(args)
	if *preset == "" {
		return fmt.Errorf("spec: -preset is required (have %v)", campaign.Presets())
	}
	spec, err := campaign.Preset(*preset, *scale, *seed, *trials)
	if err != nil {
		return err
	}
	b, err := specJSON(spec)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func cmdRun(args []string, resume bool) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON ('-' for stdin; resume reads it from the checkpoint)")
	out := fs.String("out", "", "checkpoint directory (required)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); the report does not depend on it")
	lanesN := fs.Int("lanes", 0, "lane-block size for fixed-graph distributed/decay/aloha/collision-rate points (0 = auto, 1 = force scalar); the report is identical for every value >= 2 and 0")
	resumeFlag := fs.Bool("resume", false, "resume from the checkpoint in -out, running only missing trials")
	haltAfter := fs.Int("halt-after", 0, "halt after N new samples (deterministic interruption for smoke tests)")
	points := fs.String("points", "", "restrict to grid points LO:HI (half-open) for cross-machine sharding")
	jsonOut := fs.Bool("json", false, "print the final report as JSON instead of text")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("run: -out is required")
	}
	resume = resume || *resumeFlag

	var spec *campaign.Spec
	var err error
	switch {
	case *specPath != "":
		var b []byte
		if *specPath == "-" {
			b, err = io.ReadAll(os.Stdin)
		} else {
			b, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return err
		}
		spec, err = campaign.ParseSpec(b)
		if err != nil {
			return err
		}
	case resume:
		m, err := campaign.ReadManifest(*out)
		if err != nil {
			return fmt.Errorf("resume: %w (pass -spec to start a fresh run)", err)
		}
		spec = m.Spec
		if err := spec.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("run: -spec is required")
	}

	opt := campaign.Options{
		Workers:   *workers,
		Dir:       *out,
		Resume:    resume,
		HaltAfter: *haltAfter,
		Lanes:     *lanesN,
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	if *points != "" {
		opt.PointLo, opt.PointHi, err = parsePointRange(*points)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
	}

	// ^C halts gracefully: in-flight trials finish, the checkpoint is
	// flushed, and the partial report is printed; resume picks up there.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	interrupt := make(chan struct{})
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "campaign: interrupted; flushing checkpoint (^C again to kill)")
			close(interrupt)
			signal.Stop(sig)
		}
	}()
	opt.Interrupt = interrupt

	report, err := campaign.Run(spec, opt)
	if err != nil {
		return err
	}
	return printReport(report, *jsonOut)
}

// parsePointRange parses a -points value strictly: exactly "LO:HI" with
// decimal integers, 0 <= LO < HI, and nothing else — no trailing garbage
// (Sscanf would accept "0:5x"), no negative bounds, no empty or inverted
// ranges. The upper bound is checked against the grid by campaign.Run,
// which knows the spec.
func parsePointRange(s string) (lo, hi int, err error) {
	bad := func(why string) (int, int, error) {
		return 0, 0, fmt.Errorf("-points must be LO:HI (half-open, 0 <= LO < HI), got %q: %s", s, why)
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return bad("missing ':'")
	}
	if strings.IndexByte(s[i+1:], ':') >= 0 {
		return bad("more than one ':'")
	}
	lo, loErr := strconv.Atoi(s[:i])
	hi, hiErr := strconv.Atoi(s[i+1:])
	if loErr != nil || hiErr != nil {
		return bad("bounds must be decimal integers")
	}
	if lo < 0 || hi < 0 {
		return bad("bounds must be non-negative")
	}
	if lo >= hi {
		return bad("LO must be below HI")
	}
	return lo, hi, nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("campaign report", flag.ExitOnError)
	out := fs.String("out", "", "checkpoint directory (required)")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("report: -out is required")
	}
	report, err := campaign.ReportDir(*out)
	if err != nil {
		return err
	}
	return printReport(report, *jsonOut)
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("campaign merge", flag.ExitOnError)
	out := fs.String("out", "", "destination checkpoint directory (required)")
	allowOverlap := fs.Bool("allow-overlap", false, "permit sources recording identical duplicates of the same (point, trial) — overlapping -points slices — instead of failing the merge")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	srcs := fs.Args()
	if len(srcs) == 0 {
		return fmt.Errorf("merge: at least one source checkpoint directory is required")
	}
	m, err := campaign.Merge(*out, srcs, *allowOverlap)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: merged %d samples from %d checkpoints into %s (complete=%v)\n",
		m.Recorded, len(srcs), *out, m.Complete)
	return nil
}

// cmdCluster drives a campaign across a fleet of radiosimd workers as
// the cluster coordinator (see internal/cluster).
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("campaign cluster", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON ('-' for stdin; resume reads it from the checkpoint)")
	out := fs.String("out", "", "coordinator checkpoint directory (optional; required for -resume)")
	addr := fs.String("addr", "127.0.0.1:0", "coordinator listen address for worker callbacks")
	advertise := fs.String("advertise", "", "coordinator base URL as workers reach it (default http://<bound addr>)")
	peers := fs.String("peers", "", "comma-separated radiosimd worker base URLs (required)")
	shardPoints := fs.Int("shard-points", 0, "grid points per shard (0 = 1, the finest grain)")
	ttl := fs.Duration("ttl", 0, "lease TTL; a lease silent this long is expired and its shard reassigned (0 = 5s)")
	maxAttempts := fs.Int("max-attempts", 0, "lease budget per shard before the campaign fails (0 = 3)")
	leasesPerWorker := fs.Int("leases-per-worker", 0, "concurrently leased shards per worker; workers also apply their own -shard-workers backpressure (0 = 1)")
	lanesN := fs.Int("lanes", 0, "lane setting every worker runs with (0 = auto, 1 = force scalar); all shards share it so all samples come from one engine")
	resumeFlag := fs.Bool("resume", false, "resume from the checkpoint in -out, leasing only incomplete shards")
	jsonOut := fs.Bool("json", false, "print the final report as JSON instead of text")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fs.Parse(args)

	var workers []string
	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		workers = append(workers, p)
	}
	if len(workers) == 0 {
		return fmt.Errorf("cluster: -peers is required (comma-separated radiosimd worker URLs)")
	}

	var spec *campaign.Spec
	var err error
	switch {
	case *specPath != "":
		var b []byte
		if *specPath == "-" {
			b, err = io.ReadAll(os.Stdin)
		} else {
			b, err = os.ReadFile(*specPath)
		}
		if err != nil {
			return err
		}
		spec, err = campaign.ParseSpec(b)
		if err != nil {
			return err
		}
	case *resumeFlag:
		if *out == "" {
			return fmt.Errorf("cluster: -resume requires -out")
		}
		m, err := campaign.ReadManifest(*out)
		if err != nil {
			return fmt.Errorf("cluster resume: %w (pass -spec to start a fresh run)", err)
		}
		spec = m.Spec
		if err := spec.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cluster: -spec is required")
	}

	// The coordinator needs its own listener: workers call back with
	// heartbeats and results.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	adv := *advertise
	if adv == "" {
		adv = "http://" + ln.Addr().String()
	}
	cfg := cluster.Config{
		Workers:         workers,
		Advertise:       adv,
		LeaseTTL:        *ttl,
		MaxAttempts:     *maxAttempts,
		PointsPerShard:  *shardPoints,
		LeasesPerWorker: *leasesPerWorker,
		Lanes:           *lanesN,
		Dir:             *out,
		Resume:          *resumeFlag,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	coord, err := cluster.NewCoordinator(spec, cfg)
	if err != nil {
		ln.Close()
		return err
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx)
	}()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign: cluster coordinator on %s (advertise %s), %d worker(s)\n",
			ln.Addr(), adv, len(workers))
	}

	// ^C cancels the coordinator loop; it flushes the checkpoint and
	// returns the partial report, and `cluster -resume` picks up there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	report, err := coord.Run(ctx)
	if err != nil {
		return err
	}
	select {
	case err := <-serveErr:
		return fmt.Errorf("cluster: coordinator listener: %w", err)
	default:
	}
	return printReport(report, *jsonOut)
}

func printReport(r *campaign.Report, asJSON bool) error {
	if asJSON {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	_, err := os.Stdout.WriteString(r.Text())
	return err
}

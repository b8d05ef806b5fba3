// Command radiosimd serves the radio-broadcast simulator over HTTP/JSON:
// a long-running daemon wrapping the repro.Run facade and the campaign
// runner behind a bounded worker pool with an LRU graph cache.
//
// Usage:
//
//	radiosimd [-addr :8357] [-workers N] [-queue N] [-cache N]
//	          [-campaign-workers N] [-shard-workers N] [-timeout D]
//	          [-max-timeout D] [-grace D] [-shard-start-delay D]
//
// Endpoints:
//
//	POST /v1/run          run one simulation, JSON in/out
//	POST /v1/run/stream   same, streaming per-round records as JSON Lines
//	POST /v1/campaign     submit a campaign spec; returns an id to poll
//	GET  /v1/campaign/{id} campaign state and, once done, the report (the
//	                      256 most recently finished campaigns are kept)
//	POST /v1/shard/lease  accept a cluster coordinator's shard lease offer
//	                      (429 + Retry-After when every shard slot is busy;
//	                      see 'campaign cluster' and internal/cluster)
//	GET  /healthz         liveness probe
//	GET  /metrics         pool, cache, latency, campaign and shard counters
//
// A full queue answers 429 with Retry-After — the daemon applies
// backpressure instead of queueing unboundedly. SIGINT/SIGTERM drain
// gracefully: intake stops, running work gets -grace to finish, then
// everything still running is canceled through its context (simulations
// stop cooperatively between rounds).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

var errUsage = errors.New("usage error")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "radiosimd:", err)
		}
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal arrives
// and the drain completes. ready, when non-nil, receives the bound
// address once the listener is up (tests bind :0 and need the port).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("radiosimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8357", "listen address")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = default)")
	queue := fs.Int("queue", 0, "pending-request queue bound (0 = default)")
	cache := fs.Int("cache", 0, "graph LRU capacity (0 = default)")
	campaignWorkers := fs.Int("campaign-workers", 0, "concurrently running campaigns (0 = default)")
	shardWorkers := fs.Int("shard-workers", 0, "concurrently running cluster shards; more lease offers get 429 (0 = default)")
	shardStartDelay := fs.Duration("shard-start-delay", 0, "delay every admitted shard before its first trial (chaos/testing knob)")
	timeout := fs.Duration("timeout", 0, "default per-run deadline (0 = default)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on request-supplied deadlines (0 = default)")
	grace := fs.Duration("grace", 10*time.Second, "drain grace on shutdown before canceling running work")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	s := serve.NewServer(serve.Config{
		Workers:         *workers,
		QueueCap:        *queue,
		CacheEntries:    *cache,
		CampaignWorkers: *campaignWorkers,
		ShardWorkers:    *shardWorkers,
		ShardStartDelay: *shardStartDelay,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	fmt.Fprintf(stdout, "radiosimd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "radiosimd: %v, draining (grace %s)\n", sig, *grace)
	case err := <-serveErr:
		return err
	}

	// Drain: the serve layer stops intake, lets running work use the
	// grace, then cancels; the HTTP server waits for the handlers those
	// jobs are attached to.
	drained := make(chan struct{})
	go func() {
		s.Shutdown(*grace)
		close(drained)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace+15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining connections: %w", err)
	}
	<-drained
	fmt.Fprintln(stdout, "radiosimd: drained, bye")
	return nil
}

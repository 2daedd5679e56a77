// Command txsamplerd is the fleet ingestion daemon: it accepts
// framed profile shards over HTTP from many nodes (htmbench -fleet, or
// anything that POSTs profile.Database bytes to /ingest), journals
// each shard durably before acknowledging it, and merges them into
// time-windowed aggregate calling-context trees served back through
// query endpoints.
//
// Acknowledged means folded: a 200 from /ingest means the shard is
// journaled and already in /profile and /top. The daemon recovers
// losslessly from kill -9: restart replays the journal into
// byte-identical aggregates.
//
//	txsamplerd -addr :8090 -dir /var/lib/txsampler
//	curl localhost:8090/stats
//	curl localhost:8090/top?window=0&by=aborts&k=5
//	curl -o agg.json localhost:8090/profile?window=0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"txsampler/internal/fleet"
	"txsampler/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its environment injected: CLI args, output
// streams, and an optional test hook that receives the bound listen
// address and a stop function once the daemon is serving.
func run(args []string, stdout, stderr io.Writer, started func(addr string, stop func())) int {
	fs := flag.NewFlagSet("txsamplerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8090", "ingest/query listen address")
		dir      = fs.String("dir", "", "state directory for the shard journal (required)")
		retain   = fs.Int("retain", 0, "keep only the newest N windows in memory; older ones answer 410 (0 = all)")
		maxShard = fs.Int64("max-shard-bytes", 32<<20, "largest accepted shard body")
		dbgAddr  = fs.String("debug-addr", "", "serve net/http/pprof, expvar, /metrics, /healthz, and /readyz on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "txsamplerd: -dir is required")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "txsamplerd: %v\n", err)
		return 1
	}

	reg := telemetry.NewRegistry()
	srv, err := fleet.Open(fleet.Config{
		Dir:           *dir,
		Retain:        *retain,
		MaxShardBytes: *maxShard,
		Metrics:       reg,
		Log:           stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "txsamplerd: %v\n", err)
		return 1
	}
	defer srv.Close()

	if *dbgAddr != "" {
		dbg, err := telemetry.ServeDebug(*dbgAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "txsamplerd: %v\n", err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "debug endpoints on http://%s/\n", dbg.Addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "txsamplerd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// SIGINT/SIGTERM drain gracefully: stop accepting, let in-flight
	// ingests finish (their journal appends are already durable), then
	// close the journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if started != nil {
		started(ln.Addr().String(), stop)
	}
	fmt.Fprintf(stdout, "txsamplerd: listening on %s (replayed %d shards)\n", ln.Addr(), srv.Replayed())

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(stderr, "txsamplerd: shutdown: %v\n", err)
		}
		fmt.Fprintln(stdout, "txsamplerd: drained")
		return 0
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "txsamplerd: serve: %v\n", err)
			return 1
		}
		return 0
	}
}

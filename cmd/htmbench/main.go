// Command htmbench lists and natively runs HTMBench workloads,
// printing exact ground-truth statistics (no profiler attached). With
// -profiledir it instead runs a journaled profile campaign: each
// workload×seed shard is profiled and saved atomically to the
// directory (name: workload with / -> _, _s<seed>.json) under an
// append-only campaign.jsonl manifest, so a killed campaign resumes
// with -resume, skipping shards whose artifacts verify; a manifest
// damaged other than by a torn final append, or written by an earlier
// version, fails with exit 1, untouched. CI diffs the artifacts across
// runs, worker counts, quanta, and kill points. SIGINT/SIGTERM stop
// the current runs at a quantum boundary and exit 130.
//
//	htmbench -list
//	htmbench -suite stamp
//	htmbench stamp/vacation synchro/linkedlist
//	htmbench -all
//	htmbench -seed 5 -profiledir /tmp/profiles stamp/vacation
//	htmbench -seed 5 -profiledir /tmp/profiles -resume stamp/vacation
//
// With -fleet-addr it becomes a fleet-ingestion driver instead: -fleet
// N simulated nodes each profile the named workloads and upload the
// shards to a running txsamplerd, optionally through a deterministic
// fault-injecting network (-net-faults), exercising the daemon's
// retry, idempotency, and backpressure paths end to end.
//
//	htmbench -fleet 32 -fleet-addr http://127.0.0.1:8090 stamp/vacation
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"txsampler"
	"txsampler/internal/experiments"
	"txsampler/internal/faults"
	"txsampler/internal/fleet"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/telemetry"
	"txsampler/internal/tsxprof"
)

func main() {
	var (
		threads  = flag.Int("threads", 0, "thread count (0 = workload default)")
		seed     = flag.Int64("seed", 1, "workload seed")
		list     = flag.Bool("list", false, "list available workloads")
		all      = flag.Bool("all", false, "run every workload")
		suite    = flag.String("suite", "", "run every workload of one suite")
		trace    = flag.String("trace", "", "record one workload and write a Chrome trace (chrome://tracing) to this path")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for independent workloads (1 = sequential); output is identical for any value")
		fplan    = flag.String("faults", "", "fault-injection plan: a preset ("+strings.Join(faults.PresetNames(), ", ")+") or key=value pairs (see internal/faults)")
		quantum  = flag.Int("quantum", 0, "scheduler run quantum in ops (0 = machine default; results are quantum-invariant)")
		profdir  = flag.String("profiledir", "", "run a journaled profile campaign: save each shard's database to this directory")
		resume   = flag.Bool("resume", false, "with -profiledir: replay the campaign journal and skip shards whose artifacts verify")
		seeds    = flag.Int("seeds", 1, "with -profiledir: fan each workload out over this many seeds starting at -seed")
		retries  = flag.Int("retries", 2, "with -profiledir: re-attempts per failed shard (exponential backoff)")
		shardTO  = flag.Duration("shard-timeout", 0, "with -profiledir: per-shard deadline (0 = none)")
		crashAt  = flag.Int("crash-after-shards", 0, "with -profiledir: exit(137) after N shards complete (crash-recovery testing)")
		dbgAddr  = flag.String("debug-addr", "", "serve net/http/pprof, expvar, /metrics, /healthz, and /readyz on this address")
		fleetAdr = flag.String("fleet-addr", "", "upload profile shards to the txsamplerd daemon at this base URL instead of printing results")
		fleetN   = flag.Int("fleet", 4, "with -fleet-addr: simulated fleet size (nodes)")
		fleetWin = flag.Int("fleet-window", 0, "with -fleet-addr: aggregation window ordinal stamped on the shards")
		netPlan  = flag.String("net-faults", "", "with -fleet-addr: network fault plan for uploads: a preset ("+strings.Join(faults.NetPresetNames(), ", ")+") or key=value pairs (see internal/faults)")
		hybrid   = flag.String("hybrid-policy", "lock-only", "slow-path execution mode: "+strings.Join(machine.HybridPolicies(), ", "))
	)
	flag.Parse()

	hpol, err := machine.ParseHybridPolicy(*hybrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
		os.Exit(2)
	}

	if *dbgAddr != "" {
		srv, err := telemetry.ServeDebug(*dbgAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/\n", srv.Addr)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "htmbench: -parallel must be >= 1 (got %d)\n", *parallel)
		os.Exit(2)
	}

	plan, err := faults.ParsePlan(*fplan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htmbench: invalid -faults: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, w := range htmbench.All() {
			fmt.Printf("%-28s [%s] %s\n", w.Name, w.Suite, w.Desc)
		}
		return
	}

	if *trace != "" {
		if flag.NArg() != 1 {
			log.Fatal("-trace needs exactly one workload")
		}
		events, err := tsxprof.RecordTrace(flag.Arg(0), *threads, *seed)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		if err := tsxprof.WriteChromeTrace(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d events written to %s\n", len(events), *trace)
		return
	}

	var names []string
	switch {
	case *all:
		names = htmbench.Names()
	case *suite != "":
		for _, w := range htmbench.BySuite(*suite) {
			names = append(names, w.Name)
		}
		if len(names) == 0 {
			log.Fatalf("no workloads in suite %q", *suite)
		}
	default:
		names = flag.Args()
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: htmbench [-threads N] [-seed S] (-list | -all | -suite S | <workload>...)")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel cooperatively: in-flight machines stop at
	// their next quantum boundary, journaled progress stays on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *fleetAdr != "" {
		np, err := faults.ParseNetPlan(*netPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "htmbench: invalid -net-faults: %v\n", err)
			os.Exit(2)
		}
		rep, err := fleet.RunFleet(fleet.FleetConfig{
			BaseURL: *fleetAdr, Nodes: *fleetN, Workloads: names,
			Threads: *threads, Seed: *seed, Window: *fleetWin,
			Plan: plan, Net: np, Quantum: *quantum,
			ShardTimeout: *shardTO, Context: ctx, Log: os.Stdout,
		})
		switch {
		case err != nil && errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "htmbench: interrupted")
			os.Exit(130)
		case err != nil:
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
			os.Exit(1)
		case rep.Failed > 0:
			os.Exit(1)
		}
		return
	}

	if *profdir != "" {
		rep, err := experiments.ProfileCampaign(os.Stdout, experiments.CampaignConfig{
			Dir: *profdir, Workloads: names,
			Threads: *threads, Seed: *seed, Seeds: *seeds,
			Plan: plan, Quantum: *quantum, Hybrid: hpol,
			Resume: *resume, Retries: *retries, Timeout: *shardTO,
			Parallel: *parallel, Context: ctx,
			CrashAfterShards: *crashAt,
		})
		switch {
		case err != nil && rep != nil && rep.Canceled:
			fmt.Fprintln(os.Stderr, "htmbench: interrupted; resume with -profiledir "+*profdir+" -resume")
			os.Exit(130)
		case err != nil:
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", err)
			os.Exit(1)
		case rep.Failed > 0:
			os.Exit(1)
		}
		return
	}

	// Each workload run is fully independent and deterministic, so
	// they shard across workers; lines are gathered and printed in
	// input order, keeping output identical for any worker count.
	lines := make([]string, len(names))
	errs := make([]error, len(names))
	workers := *parallel
	if workers > len(names) {
		workers = len(names)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				lines[i], errs[i] = runOne(ctx, names[i], *threads, *seed, plan, *quantum, hpol)
			}
		}()
	}
	wg.Wait()
	for i, line := range lines {
		if errs[i] != nil {
			if errors.Is(errs[i], machine.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "htmbench: interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "htmbench: %v\n", errs[i])
			os.Exit(1)
		}
		fmt.Print(line)
	}
}

func runOne(ctx context.Context, name string, threads int, seed int64, plan faults.Plan, quantum int, hybrid machine.HybridPolicy) (string, error) {
	res, err := txsampler.Run(name, txsampler.Options{
		Threads: threads, Seed: seed, Faults: plan, Quantum: quantum, Hybrid: hybrid, Context: ctx,
	})
	if err != nil {
		return "", err
	}
	g := res.GroundTruth
	var aborts uint64
	for _, n := range g.Aborts {
		aborts += n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s cycles=%-10d commits=%-7d aborts=%-7d causes:", name, res.ElapsedCycles, g.Commits, aborts)
	for _, c := range g.AbortCauses() {
		fmt.Fprintf(&b, " %v=%d", c, g.Aborts[c])
	}
	b.WriteByte('\n')
	return b.String(), nil
}

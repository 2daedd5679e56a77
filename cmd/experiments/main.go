// Command experiments regenerates the paper's tables and figures.
// SIGINT/SIGTERM cancel the sweep cooperatively — in-flight machine
// runs stop at a quantum boundary — and the process exits 130. With
// -sweep the command runs a crash-safe profile campaign over every
// base workload instead (resumable with -resume; see cmd/profck).
//
//	experiments -all
//	experiments -fig5 -threads 14
//	experiments -fig7 -table2
//	experiments -case dedup
//	experiments -sweep profiles/ -seeds 3
//	experiments -sweep profiles/ -seeds 3 -resume
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
	"syscall"

	"txsampler/internal/experiments"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/telemetry"
)

func main() {
	var (
		threads  = flag.Int("threads", 14, "thread count")
		seed     = flag.Int64("seed", 1, "workload seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for independent runs (1 = sequential); output is identical for any value")
		all      = flag.Bool("all", false, "run everything")
		fig5     = flag.Bool("fig5", false, "Figure 5: runtime overhead per benchmark")
		fig6     = flag.Bool("fig6", false, "Figure 6: overhead vs thread count")
		table1   = flag.Bool("table1", false, "Table 1: CLOMP-TM inputs")
		fig7     = flag.Bool("fig7", false, "Figure 7: CLOMP-TM decompositions")
		fig8     = flag.Bool("fig8", false, "Figure 8: application categorization")
		table2   = flag.Bool("table2", false, "Table 2: optimization speedups")
		mem      = flag.Bool("mem", false, "collector memory overhead")
		acc      = flag.Bool("accuracy", false, "attribution accuracy vs a conventional profiler")
		tsx      = flag.Bool("tsxprof", false, "record-and-replay baseline comparison (TSXProf-style)")
		caseN    = flag.String("case", "", "case study: dedup | leveldb | histo")
		sweep    = flag.String("sweep", "", "run a journaled profile campaign over every base workload into this directory")
		seeds    = flag.Int("seeds", 1, "with -sweep: fan each workload out over this many seeds starting at -seed")
		resume   = flag.Bool("resume", false, "with -sweep: replay the campaign journal and skip shards whose artifacts verify")
		retries  = flag.Int("retries", 2, "with -sweep: re-attempts per failed shard (exponential backoff)")
		shardTO  = flag.Duration("shard-timeout", 0, "with -sweep: per-shard deadline (0 = none)")
		crashAt  = flag.Int("crash-after-shards", 0, "with -sweep: exit(137) after N shards complete (crash-recovery testing)")
		dbgAddr  = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and /metrics on this address")
		hybrid   = flag.String("hybrid-policy", "lock-only", "slow-path execution mode: "+strings.Join(machine.HybridPolicies(), ", "))
	)
	flag.Parse()
	if *parallel < 1 {
		log.Fatalf("-parallel must be >= 1 (got %d)", *parallel)
	}
	hpol, err := machine.ParseHybridPolicy(*hybrid)
	if err != nil {
		log.Fatalf("experiments: %v", err)
	}
	// One registry serves -debug-addr's /metrics and receives the
	// -sweep campaign's counters.
	reg := telemetry.NewRegistry()
	if *dbgAddr != "" {
		srv, err := telemetry.ServeDebug(*dbgAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/\n", srv.Addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	experiments.Parallel = *parallel
	experiments.Context = ctx
	experiments.Hybrid = hpol
	w := os.Stdout

	if *sweep != "" {
		var names []string
		for _, wl := range htmbench.All() {
			if wl.Suite == "opt" {
				continue
			}
			names = append(names, wl.Name)
		}
		rep, err := experiments.ProfileCampaign(w, experiments.CampaignConfig{
			Dir: *sweep, Workloads: names,
			Threads: *threads, Seed: *seed, Seeds: *seeds, Hybrid: hpol,
			Resume: *resume, Retries: *retries, Timeout: *shardTO,
			Parallel: *parallel, Context: ctx, Metrics: reg,
			CrashAfterShards: *crashAt,
		})
		switch {
		case err != nil && rep != nil && rep.Canceled:
			fmt.Fprintln(os.Stderr, "experiments: interrupted; resume with -sweep "+*sweep+" -resume")
			os.Exit(130)
		case err != nil:
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		case rep.Failed > 0:
			os.Exit(1)
		}
		return
	}

	fail := func(err error) {
		if errors.Is(err, machine.ErrCanceled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		log.Fatal(err)
	}

	any := false
	run := func(enabled bool, f func() error) {
		if enabled || *all {
			any = true
			if err := f(); err != nil {
				fail(err)
			}
			fmt.Fprintln(w)
		}
	}

	run(*table1, func() error { experiments.Table1(w); return nil })
	run(*fig5, func() error { _, _, err := experiments.Fig5(w, *threads, *seed); return err })
	run(*fig6, func() error { _, err := experiments.Fig6(w, *seed); return err })
	run(*fig7, func() error { _, err := experiments.Fig7(w, *threads, *seed); return err })
	run(*fig8, func() error { _, err := experiments.Fig8(w, *threads, *seed); return err })
	run(*table2, func() error { _, err := experiments.Table2(w, *threads, *seed); return err })
	run(*mem, func() error { _, err := experiments.MemOverhead(w, *threads, *seed); return err })
	run(*acc, func() error { return experiments.AccuracyComparison(w, *threads, *seed) })
	run(*tsx, func() error { return experiments.TSXProfComparison(w, *threads, *seed) })

	caseStudy := func(name string) {
		any = true
		if _, _, err := experiments.CaseStudy(w, name, *threads, *seed); err != nil {
			fail(err)
		}
	}
	switch *caseN {
	case "":
	case "dedup":
		caseStudy("parsec/dedup")
	case "leveldb":
		caseStudy("app/leveldb")
	case "histo":
		caseStudy("parboil/histo-1")
		caseStudy("parboil/histo-2")
	default:
		log.Fatalf("unknown case study %q", *caseN)
	}
	if *all && *caseN == "" {
		for _, c := range []string{"parsec/dedup", "app/leveldb", "parboil/histo-1"} {
			caseStudy(c)
			fmt.Fprintln(w)
		}
	}
	if !any {
		flag.Usage()
	}
}

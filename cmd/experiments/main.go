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
	"io"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, prints the chosen sections to
// stdout and returns the exit status. Under a hybrid policy other than
// lock-only, a "hybrid policy: <name>" line precedes the first section,
// so a saved output names the policy behind its numbers.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads  = fs.Int("threads", 14, "thread count")
		seed     = fs.Int64("seed", 1, "workload seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for independent runs (1 = sequential); output is identical for any value")
		all      = fs.Bool("all", false, "run everything")
		fig5     = fs.Bool("fig5", false, "Figure 5: runtime overhead per benchmark")
		fig6     = fs.Bool("fig6", false, "Figure 6: overhead vs thread count")
		table1   = fs.Bool("table1", false, "Table 1: CLOMP-TM inputs")
		fig7     = fs.Bool("fig7", false, "Figure 7: CLOMP-TM decompositions")
		fig8     = fs.Bool("fig8", false, "Figure 8: application categorization")
		table2   = fs.Bool("table2", false, "Table 2: optimization speedups")
		mem      = fs.Bool("mem", false, "collector memory overhead")
		acc      = fs.Bool("accuracy", false, "attribution accuracy vs a conventional profiler")
		tsx      = fs.Bool("tsxprof", false, "record-and-replay baseline comparison (TSXProf-style)")
		caseN    = fs.String("case", "", "case study: dedup | leveldb | histo")
		sweep    = fs.String("sweep", "", "run a journaled profile campaign over every base workload into this directory")
		seeds    = fs.Int("seeds", 1, "with -sweep: fan each workload out over this many seeds starting at -seed")
		resume   = fs.Bool("resume", false, "with -sweep: replay the campaign journal and skip shards whose artifacts verify")
		retries  = fs.Int("retries", 2, "with -sweep: re-attempts per failed shard (exponential backoff)")
		shardTO  = fs.Duration("shard-timeout", 0, "with -sweep: per-shard deadline (0 = none)")
		crashAt  = fs.Int("crash-after-shards", 0, "with -sweep: exit(137) after N shards complete (crash-recovery testing)")
		dbgAddr  = fs.String("debug-addr", "", "serve net/http/pprof, expvar, and /metrics on this address")
		hybrid   = fs.String("hybrid-policy", "lock-only", "slow-path execution mode: "+strings.Join(machine.HybridPolicies(), ", "))
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "experiments: -parallel must be >= 1 (got %d)\n", *parallel)
		return 2
	}
	hpol, err := machine.ParseHybridPolicy(*hybrid)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	var cases []string
	switch *caseN {
	case "":
		if *all {
			cases = []string{"parsec/dedup", "app/leveldb", "parboil/histo-1"}
		}
	case "dedup":
		cases = []string{"parsec/dedup"}
	case "leveldb":
		cases = []string{"app/leveldb"}
	case "histo":
		cases = []string{"parboil/histo-1", "parboil/histo-2"}
	default:
		fmt.Fprintf(stderr, "experiments: unknown case study %q (want dedup, leveldb or histo)\n", *caseN)
		return 2
	}
	// One registry serves -debug-addr's /metrics and receives the
	// -sweep campaign's counters.
	reg := telemetry.NewRegistry()
	if *dbgAddr != "" {
		srv, err := telemetry.ServeDebug(*dbgAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "debug endpoints on http://%s/\n", srv.Addr)
	}
	experiments.Parallel = *parallel
	experiments.Context = ctx
	experiments.Hybrid = hpol
	w := stdout

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
			fmt.Fprintln(stderr, "experiments: interrupted; resume with -sweep "+*sweep+" -resume")
			return 130
		case err != nil:
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		case rep.Failed > 0:
			return 1
		}
		return 0
	}

	// failed maps a section's error to the exit status: 130 for an
	// interrupt, 1 otherwise.
	failed := func(err error) int {
		if errors.Is(err, machine.ErrCanceled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "experiments: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}

	// begin runs before each section; the first names a hybrid policy.
	any := false
	begin := func() {
		if !any && hpol != machine.HybridLockOnly {
			fmt.Fprintf(w, "hybrid policy: %v\n", hpol)
		}
		any = true
	}
	sections := []struct {
		enabled bool
		f       func() error
	}{
		{*table1, func() error { experiments.Table1(w); return nil }},
		{*fig5, func() error { _, _, err := experiments.Fig5(w, *threads, *seed); return err }},
		{*fig6, func() error { _, err := experiments.Fig6(w, *seed); return err }},
		{*fig7, func() error { _, err := experiments.Fig7(w, *threads, *seed); return err }},
		{*fig8, func() error { _, err := experiments.Fig8(w, *threads, *seed); return err }},
		{*table2, func() error { _, err := experiments.Table2(w, *threads, *seed); return err }},
		{*mem, func() error { _, err := experiments.MemOverhead(w, *threads, *seed); return err }},
		{*acc, func() error { return experiments.AccuracyComparison(w, *threads, *seed) }},
		{*tsx, func() error { return experiments.TSXProfComparison(w, *threads, *seed) }},
	}
	for _, sec := range sections {
		if !sec.enabled && !*all {
			continue
		}
		begin()
		if err := sec.f(); err != nil {
			return failed(err)
		}
		fmt.Fprintln(w)
	}

	for _, name := range cases {
		begin()
		if _, _, err := experiments.CaseStudy(w, name, *threads, *seed); err != nil {
			return failed(err)
		}
		if *all && *caseN == "" {
			fmt.Fprintln(w)
		}
	}
	if !any {
		fs.Usage()
	}
	return 0
}

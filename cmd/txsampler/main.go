// Command txsampler profiles an HTMBench workload and prints the
// merged report, the per-thread commit/abort histogram, and the
// decision tree's optimization advice. Profiles can be saved to a
// JSON database and re-opened later, and rendered as a
// calling-context tree with metric columns (the paper's GUI views).
//
//	txsampler -list
//	txsampler parsec/dedup
//	txsampler -threads 8 -seed 3 -tree -histogram stamp/vacation
//	txsampler -o dedup.json parsec/dedup
//	txsampler -view dedup.json
//	txsampler -faults storm stamp/vacation
//	txsampler -trace dedup.trace.json parsec/dedup
//	txsampler -debug-addr localhost:6060 stamp/vacation
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"txsampler"
	"txsampler/internal/core"
	"txsampler/internal/faults"
	"txsampler/internal/htmbench"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/profile"
	"txsampler/internal/telemetry"
	"txsampler/internal/viewer"
)

func main() {
	var (
		threads = flag.Int("threads", 0, "thread count (0 = workload default)")
		seed    = flag.Int64("seed", 1, "workload seed")
		list    = flag.Bool("list", false, "list available workloads")
		native  = flag.Bool("native", false, "run without the profiler and print ground truth only")
		tree    = flag.Bool("tree", false, "render the calling-context view (Figure 9)")
		histo   = flag.Bool("histogram", false, "render the per-thread commit/abort histogram")
		output  = flag.String("o", "", "save the profile database to this path")
		view    = flag.String("view", "", "open a saved profile database instead of running")
		acc     = flag.Bool("accuracy", false, "score attribution accuracy against ground truth")
		plot    = flag.String("plot", "", "plot per-thread CS time for a context path, e.g. 'thread_root>tm_begin'")
		html    = flag.String("html", "", "write a standalone HTML report to this path")
		fplan   = flag.String("faults", "", "fault-injection plan: a preset ("+strings.Join(faults.PresetNames(), ", ")+") or key=value pairs (see internal/faults)")
		tracef  = flag.String("trace", "", "write a Chrome trace-event JSON file (chrome://tracing or Perfetto) of the run to this path")
		dbgAddr = flag.String("debug-addr", "", "serve net/http/pprof, expvar, and /metrics on this address (e.g. localhost:6060)")
		quantum = flag.Int("quantum", 0, "scheduler run quantum in ops (0 = machine default; results are quantum-invariant)")
		hybrid  = flag.String("hybrid-policy", "lock-only", "slow-path execution mode: "+strings.Join(machine.HybridPolicies(), ", "))
		elide   = flag.Bool("elide", false, "enable lock elision: elidable locks speculate before acquiring (per-site verdicts in the report)")
		pmemOn  = flag.Bool("pmem", false, "enable the persistent-memory tier (durable commits + persistence-stall attribution; pmem/* workloads)")
	)
	flag.Parse()

	pcfg := pmem.Config{Enabled: *pmemOn}

	hpol, err := machine.ParseHybridPolicy(*hybrid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "txsampler: %v\n", err)
		os.Exit(2)
	}
	emode := machine.ElisionOff
	if *elide {
		emode = machine.ElisionOn
	}

	metrics := telemetry.NewRegistry()
	if *dbgAddr != "" {
		srv, err := telemetry.ServeDebug(*dbgAddr, metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/ (pprof, expvar, metrics)\n", srv.Addr)
	}

	plan, err := faults.ParsePlan(*fplan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "txsampler: invalid -faults: %v\n", err)
		os.Exit(2)
	}

	if *view != "" {
		db, err := profile.Load(*view)
		if err != nil {
			log.Fatal(err)
		}
		r := db.Report()
		r.Render(os.Stdout)
		fmt.Println()
		viewer.Tree(os.Stdout, r)
		fmt.Println()
		viewer.Histogram(os.Stdout, r)
		fmt.Println()
		viewer.DataQuality(os.Stdout, r)
		if len(r.Self) > 0 {
			fmt.Println()
			viewer.SelfReport(os.Stdout, r)
		}
		return
	}

	if *list {
		for _, w := range htmbench.All() {
			fmt.Printf("%-28s [%s] %s\n", w.Name, w.Suite, w.Desc)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: txsampler [flags] <workload> | -list | -view profile.json (see -h)")
		os.Exit(2)
	}
	name := flag.Arg(0)
	// SIGINT/SIGTERM stop the run cooperatively at the next quantum
	// boundary; a profiled run still flushes a Partial database to -o.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *acc {
		res, a, err := txsampler.RunWithAccuracy(name, txsampler.Options{Threads: *threads, Seed: *seed, Faults: plan, Quantum: *quantum, Hybrid: hpol, Elision: emode, Pmem: pcfg, Context: ctx})
		if err != nil {
			if errors.Is(err, txsampler.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "txsampler: interrupted")
				os.Exit(130)
			}
			log.Fatal(err)
		}
		fmt.Printf("workload: %s (%d threads, seed %d)\n", res.Workload, res.Threads, *seed)
		fmt.Printf("samples: %d total, %d inside transactions\n", a.Total, a.InTx)
		if a.InTx > 0 {
			// Exact counts first: percentages round, and a sub-0.1%
			// attribution regression must still flip the byte-diff in
			// the CI determinism job.
			fmt.Printf("in-tx path detected via LBR abort bit: %d/%d (%.1f%%)\n",
				a.PathDetected, a.InTx, 100*float64(a.PathDetected)/float64(a.InTx))
			fmt.Printf("full context recovered: txsampler %d/%d (%.1f%%), stack-only profiler %d/%d (%.1f%%)\n",
				a.TxSamplerCorrect, a.InTx, 100*float64(a.TxSamplerCorrect)/float64(a.InTx),
				a.NaiveCorrect, a.InTx, 100*float64(a.NaiveCorrect)/float64(a.InTx))
		}
		if n := a.Modes.Total(); n > 0 {
			fmt.Printf("execution-mode classification: %d/%d correct (%.1f%%)\n",
				a.Modes.Correct(), n, 100*a.Modes.Accuracy())
		}
		if *output != "" && res.Report != nil {
			if err := profile.FromReport(res.Report).Save(*output); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("profile database written to %s\n", *output)
		}
		return
	}
	var tracer *telemetry.Tracer
	if *tracef != "" {
		tracer = telemetry.NewTracer(0)
	}
	res, err := txsampler.Run(name, txsampler.Options{
		Threads: *threads, Seed: *seed, Profile: !*native, Faults: plan,
		Quantum: *quantum, Trace: tracer, Metrics: metrics, Hybrid: hpol,
		Elision: emode, Pmem: pcfg, Context: ctx,
	})
	if err != nil {
		if errors.Is(err, txsampler.ErrCanceled) {
			if res != nil && res.Report != nil && *output != "" {
				if serr := profile.FromReport(res.Report).Save(*output); serr != nil {
					fmt.Fprintf(os.Stderr, "txsampler: interrupted; partial profile save failed: %v\n", serr)
					os.Exit(1)
				}
				metrics.Counter("profile.partial_flushes").Add(1)
				fmt.Fprintf(os.Stderr, "txsampler: interrupted; partial profile written to %s\n", *output)
			} else {
				fmt.Fprintln(os.Stderr, "txsampler: interrupted")
			}
			os.Exit(130)
		}
		log.Fatal(err)
	}
	if tracer != nil {
		f, err := os.Create(*tracef)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d events", *tracef, tracer.Len())
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf(", %d dropped", d)
		}
		fmt.Println(") — load in chrome://tracing or https://ui.perfetto.dev")
	}
	if plan.Enabled() {
		fmt.Printf("fault injection: %s\n", plan)
	}

	fmt.Printf("workload: %s (%d threads, seed %d)\n", res.Workload, res.Threads, *seed)
	fmt.Printf("elapsed: %d cycles (total work %d)\n", res.ElapsedCycles, res.TotalCycles)
	g := res.GroundTruth
	fmt.Printf("ground truth: %d commits; aborts:", g.Commits)
	for _, c := range g.AbortCauses() {
		fmt.Printf(" %v=%d", c, g.Aborts[c])
	}
	fmt.Println()

	if res.Report != nil {
		if *output != "" {
			if err := profile.FromReport(res.Report).Save(*output); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("profile database written to %s\n", *output)
		}
		if *tree {
			fmt.Println()
			viewer.Tree(os.Stdout, res.Report)
		}
		if *histo {
			fmt.Println()
			viewer.Histogram(os.Stdout, res.Report)
		}
		if *html != "" {
			f, err := os.Create(*html)
			if err != nil {
				log.Fatal(err)
			}
			if err := viewer.HTML(f, res.Report, res.Advice); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("HTML report written to %s\n", *html)
		}
		if *plot != "" {
			fmt.Println()
			var path []lbr.IP
			for _, part := range strings.Split(*plot, ">") {
				fn, site, _ := strings.Cut(strings.TrimSpace(part), ":")
				path = append(path, lbr.IP{Fn: fn, Site: site})
			}
			viewer.ContextHistogram(os.Stdout, res.Report, path, "T", (*core.Metrics).T)
		}
		fmt.Println()
		res.Report.Render(os.Stdout)
		fmt.Println()
		viewer.DataQuality(os.Stdout, res.Report)
		fmt.Println("\nper-thread commit/abort samples:")
		for _, t := range res.Report.PerThread {
			fmt.Printf("  thread %2d: commits=%-5d aborts=%d\n", t.TID, t.CommitSamples, t.AbortSamples)
		}
		fmt.Println()
		res.Advice.Render(os.Stdout)
		fmt.Printf("\ncollector state: %.1f KiB\n", float64(res.CollectorBytes)/1024)
		fmt.Println()
		viewer.SelfReport(os.Stdout, res.Report)
	}
}

// Command txvalidate runs a campaign of randomly generated
// transactional programs (internal/progen) through the full txsampler
// pipeline and emits a machine-readable accuracy report: in-tx context
// recovery, abort-cause confusion drift, sharing-site precision/recall,
// and metamorphic-invariant violations (internal/validate).
//
//	txvalidate -n 100 -seed 1                       # report to stdout
//	txvalidate -n 200 -seed 1 -baseline VALIDATE_baseline.json
//	txvalidate -n 40 -mix pmem+elide -baseline VALIDATE_baseline.json
//
// The report is deterministic: equal flags produce byte-identical
// output. With -baseline, the exit status is non-zero when any
// aggregate metric regresses below the checked-in floor.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"txsampler/internal/machine"
	"txsampler/internal/progen"
	"txsampler/internal/validate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("txvalidate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 100, "number of generated programs")
		seed     = fs.Int64("seed", 1, "first generation seed (program i uses seed+i)")
		threads  = fs.Int("threads", 0, "thread count override (0 = per-program generated count)")
		out      = fs.String("o", "", "write the JSON report to this file (default stdout)")
		baseline = fs.String("baseline", "", "check the aggregate against this baseline file")
		hybrid   = fs.String("hybrid-policy", "lock-only", "slow-path execution mode: "+strings.Join(machine.HybridPolicies(), ", "))
		mixName  = fs.String("mix", "default", "generation mix: "+strings.Join(progen.Mixes(), ", ")+" (stm: slow-path-forcing regions; pmem: durable regions, pmem tier on; elide: elidable locks, elision on)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n <= 0 {
		fmt.Fprintln(stderr, "txvalidate: -n must be positive")
		return 2
	}
	hpol, err := machine.ParseHybridPolicy(*hybrid)
	if err != nil {
		fmt.Fprintln(stderr, "txvalidate:", err)
		return 2
	}
	mix, err := progen.ParseMix(*mixName)
	if err != nil {
		fmt.Fprintln(stderr, "txvalidate:", err)
		return 2
	}

	rep, err := validate.Campaign(*n, *seed, validate.Options{Threads: *threads, Hybrid: hpol, Mix: mix})
	if err != nil {
		fmt.Fprintln(stderr, "txvalidate:", err)
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "txvalidate:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintln(stderr, "txvalidate:", err)
		return 1
	}

	if *baseline != "" {
		b, err := validate.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "txvalidate:", err)
			return 1
		}
		if err := b.Check(rep.Aggregate); err != nil {
			fmt.Fprintln(stderr, "txvalidate:", err)
			return 1
		}
		fmt.Fprintln(stderr, "txvalidate: baseline check passed")
	}
	return 0
}

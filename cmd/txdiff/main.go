// Command txdiff compares two profile databases (or re-profiles two
// workloads) and prints the metric deltas and top-moving contexts —
// the paper's §8 iterative workflow: optimize, re-profile, compare.
//
// Either side may also be a comma-separated list of databases or a
// directory of them (its *.json files, so an htmbench -profiledir
// campaign directory works as is); shards on a side load in parallel
// and fold into one profile before diffing, so a fleet of per-node
// uploads diffs directly against another fleet.
//
//	txdiff before.json after.json
//	txdiff before-shards/ after-shards/
//	txdiff a1.json,a2.json b1.json,b2.json
//	txdiff -run parsec/dedup parsec/dedup-opt
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/campaign"
	"txsampler/internal/profile"
	"txsampler/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("txdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads = fs.Int("threads", 0, "thread count for -run (0 = workload default)")
		seed    = fs.Int64("seed", 1, "workload seed for -run")
		rerun   = fs.Bool("run", false, "arguments are workload names to profile, not saved databases")
		top     = fs.Int("top", 8, "number of moving contexts to show")
		dbgAddr = fs.String("debug-addr", "", "serve net/http/pprof, expvar, and /metrics on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbgAddr != "" {
		srv, err := telemetry.ServeDebug(*dbgAddr, nil)
		if err != nil {
			fmt.Fprintln(stderr, "txdiff:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "debug endpoints on http://%s/\n", srv.Addr)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: txdiff [-run] [-threads N] [-seed S] <before> <after> (each side: database, comma-list, or directory of databases)")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	load := func(arg string) (*analyzer.Report, error) {
		if *rerun {
			res, err := txsampler.Run(arg, txsampler.Options{Threads: *threads, Seed: *seed, Profile: true, Context: ctx})
			if err != nil {
				return nil, err
			}
			return res.Report, nil
		}
		db, err := loadMerged(ctx, arg)
		if err != nil {
			return nil, err
		}
		return db.Report(), nil
	}
	var reports [2]*analyzer.Report
	for i, arg := range []string{fs.Arg(0), fs.Arg(1)} {
		r, err := load(arg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(stderr, "txdiff: interrupted")
				return 130
			}
			fmt.Fprintln(stderr, "txdiff:", err)
			return 1
		}
		reports[i] = r
	}
	analyzer.RenderDiff(stdout, reports[0], reports[1], *top)
	return 0
}

// loadMerged resolves one diff side: a single database path, a
// comma-separated list of paths, or a directory of databases. Multiple
// shards decode in parallel and fold with profile.MergeAll; the result
// is independent of decode order and core count.
func loadMerged(ctx context.Context, arg string) (*profile.Database, error) {
	paths, err := expandArg(arg)
	if err != nil {
		return nil, err
	}
	dbs, err := campaign.Map(ctx, runtime.GOMAXPROCS(0), len(paths), func(i int) (*profile.Database, error) {
		db, err := profile.Load(paths[i])
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", paths[i], err)
		}
		return db, nil
	})
	if err != nil {
		return nil, err
	}
	return profile.MergeAll(dbs), nil
}

// expandArg turns a diff-side argument into the sorted list of
// database paths it names. A directory contributes its *.json files,
// the rule profile.Fsck uses, so a campaign journal beside them is
// skipped.
func expandArg(arg string) ([]string, error) {
	if strings.Contains(arg, ",") {
		parts := strings.Split(arg, ",")
		paths := parts[:0]
		for _, p := range parts {
			if p != "" {
				paths = append(paths, p)
			}
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("empty database list %q", arg)
		}
		return paths, nil
	}
	st, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return []string{arg}, nil
	}
	entries, err := os.ReadDir(arg)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(arg, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("directory %s holds no databases", arg)
	}
	sort.Strings(paths)
	return paths, nil
}

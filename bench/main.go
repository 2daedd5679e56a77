// Command bench is TxSampler's end-to-end benchmark. It runs one named
// workload for a fixed time, checks every output it produces, and
// prints the workload's metrics as one JSON object on the last line of
// standard output. See README.md for the workloads, the metrics and
// the layer map.
//
//	bash bench/run.sh --workload suite-2t --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh --workload fleet-ingest --trace 1 --trace-out fleet.trace.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//	bash bench/run.sh -summarize runs.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workdir  string
	verbose  bool

	// Test sizing; zero values select the full workload.
	only        map[string]bool // keep only the jobs and subset programs with these labels
	maxShards   int             // fleet-ingest: stop the uploader after this many shards
	setupRounds int             // set-ups timed for setup_s (default 5)
}

// keep filters jobs by the only set.
func (c config) keep(jobs []job) []job {
	if c.only == nil {
		return jobs
	}
	var out []job
	for _, j := range jobs {
		if c.only[j.label] {
			out = append(out, j)
		}
	}
	return out
}

func main() {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write a Chrome trace")
		traceOut  = flag.String("trace-out", "", "Chrome trace path for --trace 1 (default .bench_build/trace-<workload>.json)")
		out       = flag.String("out", "", "append this run's record (metrics and output digests) to this JSON-lines file")
		compare   = flag.Bool("compare", false, "compare two record files: -compare A.jsonl B.jsonl")
		summarize = flag.String("summarize", "", "print medians and spreads per (workload, metric) of a record file")
		spec      = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
		record    = flag.String("record-digests", "", "run every machine job for seeds 1..10 and write their digests to this file")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "base seed; every input of the run derives from it")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for profiles and fleet journals")
	flag.BoolVar(&cfg.verbose, "v", false, "log every job to standard error")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.traced = *trace == 1

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare A.jsonl B.jsonl")
		}
		if err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *summarize != "":
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			fatalf("%v", err)
		}
		return
	case *record != "":
		if err := recordDigests(*record, cfg.workdir); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds < 0 {
		fatalf("--seconds must not be negative")
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown --workload %q (want %s)", cfg.workload, workloadNames())
	}
	if cfg.traced && *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
	}

	rec, spans, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if cfg.traced {
		if err := writeTraceFile(*traceOut, spans); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bench: trace written to %s\n", *traceOut)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// run executes one workload run in a fresh scratch directory.
func run(cfg config) (*record, *recorder, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir
	if cfg.setupRounds == 0 {
		cfg.setupRounds = 5
	}
	var spans *recorder
	if cfg.traced {
		spans = newRecorder()
	}
	rec, err := workloads[cfg.workload](cfg, spans)
	if err != nil {
		return nil, nil, err
	}
	rec.Workload, rec.Seed = cfg.workload, cfg.seed
	return rec, spans, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// Package txsampler is a full reproduction of "Lightweight Hardware
// Transactional Memory Profiling" (PPoPP 2019) as a Go library.
//
// Because Go exposes neither TSX intrinsics nor safe signal-based PMU
// sampling, the system runs on a deterministic simulated multicore
// machine (internal/machine) with a cache-coherence-based HTM, a PMU
// whose counter overflows abort transactions, and Last Branch Records.
// On top of it, the TxSampler profiler (internal/core), offline
// analyzer (internal/analyzer), and decision-tree model
// (internal/decision) are implemented exactly as the paper describes,
// and the HTMBench suite (internal/htmbench) supplies 30+ workloads
// plus the optimized variants of Table 2.
//
// This package is the public surface: run a benchmark natively or
// under the profiler and obtain the merged report and optimization
// advice.
//
//	res, err := txsampler.Run("parsec/dedup", txsampler.Options{Profile: true})
//	res.Report.Render(os.Stdout)
//	res.Advice.Render(os.Stdout)
package txsampler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"txsampler/internal/analyzer"
	"txsampler/internal/cache"
	"txsampler/internal/core"
	"txsampler/internal/decision"
	"txsampler/internal/faults"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
	"txsampler/internal/telemetry"
)

// BenchCache returns the L1 geometry used for benchmark runs: the
// workloads are scaled down ~100x from the originals' native inputs,
// so the simulated L1 (32 sets x 4 ways x 64B = 8 KiB) is scaled to
// match — transactional footprints relate to HTM capacity as they do
// on the paper's 14-core Broadwell.
func BenchCache() cache.Config {
	return cache.Config{Sets: 32, Ways: 4, HitLatency: 4, MissLatency: 60, RemoteLatency: 90}
}

// DefaultPeriods returns the sampling periods benchmark profiling
// uses; see pmu.DefaultPeriods.
func DefaultPeriods() pmu.Periods { return pmu.DefaultPeriods() }

// Options configures a run.
type Options struct {
	// Threads overrides the workload's default thread count (14).
	Threads int
	// Seed makes runs reproducible; runs with equal options are
	// bit-identical.
	Seed int64
	// Profile attaches the TxSampler collector. A native run (false)
	// has no PMU interrupts and no profiling perturbation.
	Profile bool
	// Periods overrides DefaultPeriods when profiling.
	Periods pmu.Periods
	// Cache overrides BenchCache.
	Cache cache.Config
	// HandlerCost (cycles per delivered sample) defaults to the
	// machine's 800.
	HandlerCost uint64
	// LBRDepth defaults to 16 (Haswell/Broadwell).
	LBRDepth int
	// SkipCheck disables the workload's result validation.
	SkipCheck bool
	// Policy overrides the RTM retry policy of the workload's global
	// lock (nil = rtm.DefaultPolicy), for the ablation studies.
	Policy *rtm.Policy
	// Hybrid selects the slow-path execution mode of every rtm.Lock in
	// the workload (zero = HybridLockOnly, the classic global-lock
	// fallback). See machine.HybridPolicy.
	Hybrid machine.HybridPolicy
	// Elision turns lock elision on: every rtm.ElidedLock in the
	// workload speculates before acquiring (zero = ElisionOff, plain
	// lock acquisition). See machine.ElisionMode.
	Elision machine.ElisionMode
	// Thresholds tune the decision tree.
	Thresholds decision.Thresholds
	// Faults enables deterministic fault injection (chaos profiling);
	// the zero plan injects nothing. See the faults package and
	// faults.ParsePlan for the -faults flag syntax.
	Faults faults.Plan
	// Pmem enables the simulated persistent-memory tier (undo logging,
	// durable-commit persist epilogue, crash injection via Faults).
	// The zero value is disabled and leaves runs bit-identical to
	// earlier versions.
	Pmem pmem.Config
	// Quantum overrides the scheduler run quantum (0 = the machine
	// default; 1 = the per-op reference schedule). The schedule is
	// quantum-invariant — results are bit-identical for any value.
	Quantum int
	// Trace, when non-nil, records scheduler, transaction, PMU, and
	// analyzer-phase events on virtual clocks; export with
	// Trace.WriteChromeTrace. The trace is deterministic for a seed
	// and invariant to Quantum.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, receives the profiler's self-metrics
	// (machine, collector, analyzer); the snapshot is attached to
	// Report.Self and rendered as the "Profiler self-report".
	Metrics *telemetry.Registry
	// Context, when non-nil, cancels the run cooperatively at a
	// scheduler quantum boundary (see machine.Config.Context). A
	// canceled profiled run returns BOTH a non-nil *Result — whose
	// Report is marked Partial and safe to persist — and an error
	// wrapping ErrCanceled.
	Context context.Context
}

// ErrCanceled reports a run stopped cooperatively by Options.Context
// (SIGINT/SIGTERM or a deadline); alias of machine.ErrCanceled.
var ErrCanceled = machine.ErrCanceled

// Result is the outcome of one run.
type Result struct {
	Workload string
	Threads  int

	// ElapsedCycles is the makespan (max thread clock); TotalCycles
	// sums all thread clocks (the exact work W).
	ElapsedCycles uint64
	TotalCycles   uint64

	// GroundTruth is the machine's exact commit/abort instrumentation.
	GroundTruth machine.GroundTruth

	// Report, Advice, and CollectorBytes are set for profiled runs.
	Report         *analyzer.Report
	Advice         *decision.Advice
	CollectorBytes int

	// Collector is the live collector of a profiled run (nil for
	// native runs). The validation harness (internal/validate)
	// re-analyzes it under profile permutations to check that profile
	// coalescing is order-independent.
	Collector *core.Collector
}

// Names lists all registered HTMBench workloads.
func Names() []string { return htmbench.Names() }

// Lookup returns a registered workload by name.
func Lookup(name string) (*htmbench.Workload, error) { return htmbench.Get(name) }

// Run builds and executes the named workload.
func Run(name string, o Options) (*Result, error) {
	w, err := htmbench.Get(name)
	if err != nil {
		return nil, err
	}
	return RunWorkload(w, o)
}

// RunWorkload builds and executes a workload (registered or not).
func RunWorkload(w *htmbench.Workload, o Options) (*Result, error) {
	threads := o.Threads
	if threads == 0 {
		threads = w.DefaultThreads
	}
	cacheCfg := o.Cache
	if cacheCfg == (cache.Config{}) {
		cacheCfg = BenchCache()
	}
	cfg := machine.Config{
		Threads:     threads,
		Cache:       cacheCfg,
		LBRDepth:    o.LBRDepth,
		Seed:        o.Seed,
		HandlerCost: o.HandlerCost,
		StartSkew:   1024,
		Faults:      o.Faults,
		Pmem:        o.Pmem,
		Quantum:     o.Quantum,
		Trace:       o.Trace,
		Hybrid:      o.Hybrid,
		Elision:     o.Elision,
		Context:     o.Context,
	}
	if o.Profile {
		cfg.Periods = o.Periods
		if !cfg.Sampling() {
			cfg.Periods = DefaultPeriods()
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	m := machine.New(cfg)
	var col *core.Collector
	if o.Profile {
		col = core.Attach(m)
	}
	inst := w.BuildInstance(m, o.Policy)
	o.Trace.BeginPhase("run")
	runStart := time.Now()
	err := m.Run(inst.Bodies...)
	runWall := time.Since(runStart)
	o.Trace.EndPhase("run")
	canceled := err != nil && errors.Is(err, machine.ErrCanceled)
	if err != nil && !canceled {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	// A canceled run skips result validation: the workload stopped at an
	// arbitrary quantum boundary, so its invariants need not hold yet.
	if err == nil && inst.Check != nil && !o.SkipCheck {
		if cerr := inst.Check(m); cerr != nil {
			return nil, fmt.Errorf("%s: result check failed: %w", w.Name, cerr)
		}
	}
	res := &Result{
		Workload:      w.Name,
		Threads:       threads,
		ElapsedCycles: m.Elapsed(),
		TotalCycles:   m.TotalCycles(),
		GroundTruth:   m.GroundTruth(),
	}
	if col != nil {
		res.Report = analyzer.AnalyzeInstrumented(w.Name, col, o.Trace, o.Metrics)
		res.Report.Quality.Injected = m.FaultStats()
		res.Report.Partial = canceled
		res.Advice = decision.Evaluate(res.Report, o.Thresholds)
		res.CollectorBytes = col.MemoryFootprint()
		res.Collector = col
	}
	if o.Metrics != nil {
		m.PublishMetrics(o.Metrics)
		if col != nil {
			col.PublishMetrics(o.Metrics)
		}
		o.Metrics.Gauge("run.wall_ns", true).Set(uint64(runWall))
		if res.Report != nil {
			res.Report.Self = o.Metrics.Snapshot(true)
		}
	}
	if canceled {
		// The partial Result is still returned so callers can flush a
		// Partial-stamped profile before exiting.
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, nil
}

// Accuracy is the attribution-accuracy comparison between TxSampler
// and a conventional stack-only profiler (§9); see core.Accuracy.
type Accuracy = core.Accuracy

// RunWithAccuracy profiles the named workload while scoring, on every
// sample, TxSampler's LBR-based in-transaction attribution against
// what a conventional profiler (bare unwound stack, no abort bit)
// would report — both judged by the machine's hidden ground truth.
func RunWithAccuracy(name string, o Options) (*Result, Accuracy, error) {
	w, err := htmbench.Get(name)
	if err != nil {
		return nil, Accuracy{}, err
	}
	return RunWorkloadWithAccuracy(w, o)
}

// RunWorkloadWithAccuracy is RunWithAccuracy for a workload that need
// not be registered — the validation harness scores generated
// transactional programs (internal/progen) through it. The returned
// Result carries the full profiled report, so a single run yields both
// the profiler's view and the ground-truth accuracy judgment, and the
// run itself is bit-identical to an ordinary profiled run with the
// same options (the probe only observes).
func RunWorkloadWithAccuracy(w *htmbench.Workload, o Options) (*Result, Accuracy, error) {
	threads := o.Threads
	if threads == 0 {
		threads = w.DefaultThreads
	}
	cacheCfg := o.Cache
	if cacheCfg == (cache.Config{}) {
		cacheCfg = BenchCache()
	}
	cfg := machine.Config{
		Threads: threads, Cache: cacheCfg, LBRDepth: o.LBRDepth,
		Seed: o.Seed, HandlerCost: o.HandlerCost, StartSkew: 1024,
		Periods: o.Periods, Faults: o.Faults, Pmem: o.Pmem,
		Quantum: o.Quantum, Trace: o.Trace, Hybrid: o.Hybrid,
		Elision: o.Elision, Context: o.Context,
	}
	if !cfg.Sampling() {
		cfg.Periods = DefaultPeriods()
	}
	if err := cfg.Validate(); err != nil {
		return nil, Accuracy{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	m := machine.New(cfg)
	col := core.NewCollector(threads, cfg.Periods, 0)
	probe := core.NewAccuracyProbe(col)
	m.SetHandler(probe)
	inst := w.BuildInstance(m, o.Policy)
	if err := m.Run(inst.Bodies...); err != nil {
		return nil, Accuracy{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	if inst.Check != nil && !o.SkipCheck {
		if cerr := inst.Check(m); cerr != nil {
			return nil, Accuracy{}, fmt.Errorf("%s: result check failed: %w", w.Name, cerr)
		}
	}
	res := &Result{
		Workload: w.Name, Threads: threads,
		ElapsedCycles: m.Elapsed(), TotalCycles: m.TotalCycles(),
		GroundTruth: m.GroundTruth(),
	}
	res.Report = analyzer.AnalyzeInstrumented(w.Name, col, o.Trace, o.Metrics)
	res.Report.Quality.Injected = m.FaultStats()
	res.Advice = decision.Evaluate(res.Report, o.Thresholds)
	res.CollectorBytes = col.MemoryFootprint()
	res.Collector = col
	if o.Metrics != nil {
		m.PublishMetrics(o.Metrics)
		col.PublishMetrics(o.Metrics)
		res.Report.Self = o.Metrics.Snapshot(true)
	}
	return res, probe.Accuracy, nil
}

// Overhead runs a workload natively and profiled with identical seeds
// and returns (native, profiled, overhead) where overhead is the
// relative makespan increase — the Figure 5 measurement.
func Overhead(name string, o Options) (native, profiled *Result, overhead float64, err error) {
	o.Profile = false
	native, err = Run(name, o)
	if err != nil {
		return nil, nil, 0, err
	}
	o.Profile = true
	profiled, err = Run(name, o)
	if err != nil {
		return nil, nil, 0, err
	}
	overhead = float64(profiled.ElapsedCycles)/float64(native.ElapsedCycles) - 1
	return native, profiled, overhead, nil
}

// Speedup runs base and optimized workloads under identical native
// conditions and returns baseElapsed/optElapsed — the Table 2
// measurement.
func Speedup(base, optimized string, o Options) (float64, error) {
	o.Profile = false
	b, err := Run(base, o)
	if err != nil {
		return 0, err
	}
	p, err := Run(optimized, o)
	if err != nil {
		return 0, err
	}
	return float64(b.ElapsedCycles) / float64(p.ElapsedCycles), nil
}

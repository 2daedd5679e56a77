// Package experiments regenerates every table and figure of the
// paper's evaluation (§7, §8) on the simulated machine: Figure 5's
// runtime overhead, Figure 6's overhead-vs-threads sweep, Table 1 /
// Figure 7's CLOMP-TM characterization, Figure 8's program
// categorization, Table 2's optimization speedups, and the three §8
// case studies. The cmd/experiments binary and the root bench suite
// both drive this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/campaign"
	"txsampler/internal/decision"
	"txsampler/internal/htm"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/rtm"
	"txsampler/internal/tsxprof"
)

// Parallel is the worker count for sharding independent machine runs
// across CPUs. Every run is a fully deterministic function of its
// options, runs share no state, and results are gathered and printed
// in input order — so output is byte-identical for any worker count.
// 1 restores fully sequential execution.
var Parallel = runtime.GOMAXPROCS(0)

// Context, when non-nil, cancels every in-flight and queued machine
// run cooperatively (SIGINT/SIGTERM in cmd/experiments): in-flight
// runs stop at their next quantum boundary and pending ones never
// start. The sweep then returns an error wrapping machine.ErrCanceled.
var Context context.Context

// Hybrid selects the slow-path execution mode of every workload lock
// in the sweeps (zero = lock-only, the classic global-lock fallback).
// It is part of each run's identity: changing it changes the results.
var Hybrid machine.HybridPolicy

// ctxOrBackground returns the package cancellation context.
func ctxOrBackground() context.Context {
	if Context != nil {
		return Context
	}
	return context.Background()
}

// Row formats helpers.
func pct(x float64) string { return fmt.Sprintf("%5.1f%%", 100*x) }

func bar(w io.Writer, label string, parts []float64, names []string) {
	fmt.Fprintf(w, "  %-16s", label)
	for i, p := range parts {
		fmt.Fprintf(w, " %s=%s", names[i], pct(p))
	}
	fmt.Fprintln(w)
}

// Fig5Row is one benchmark's overhead measurement.
type Fig5Row struct {
	Name      string
	NativeCyc uint64
	ProfCyc   uint64
	Overhead  float64
}

// Fig5 measures TxSampler's runtime overhead on every registered
// non-optimized workload (the paper's Figure 5). Following §7.1, each
// program's overhead is averaged over five of seven executions
// (different seeds), excluding the smallest and largest. It returns
// the rows and the geometric-mean overhead.
func Fig5(w io.Writer, threads int, seed int64) ([]Fig5Row, float64, error) {
	fmt.Fprintf(w, "=== Figure 5: TxSampler runtime overhead (%d threads) ===\n", threads)
	var names []string
	for _, wl := range htmbench.All() {
		if wl.Suite == "opt" {
			continue // Figure 5 covers the base programs
		}
		names = append(names, wl.Name)
	}
	rows, err := campaign.Map(ctxOrBackground(), Parallel, len(names), func(i int) (Fig5Row, error) {
		return overheadRow(names[i], threads, seed)
	})
	if err != nil {
		return nil, 0, err
	}
	geo := 1.0
	for _, row := range rows {
		fmt.Fprintf(w, "  %-26s native=%-10d profiled=%-10d overhead=%s\n",
			row.Name, row.NativeCyc, row.ProfCyc, pct(row.Overhead))
		geo *= 1 + row.Overhead
	}
	mean := 0.0
	if len(rows) > 0 {
		mean = math.Pow(geo, 1/float64(len(rows))) - 1
	}
	fmt.Fprintf(w, "  geometric-mean overhead: %s (paper: ~4%%, <10%% geo-mean)\n", pct(mean))
	return rows, mean, nil
}

// Fig6 measures the average overhead across the STAMP-like suite for
// several thread counts (the paper's Figure 6), with the same
// exclude-extremes averaging as Fig5.
func Fig6(w io.Writer, seed int64) (map[int]float64, error) {
	fmt.Fprintln(w, "=== Figure 6: overhead vs thread count (STAMP suite) ===")
	counts := []int{1, 2, 4, 8, 14}
	stamp := htmbench.BySuite("stamp")
	type cell struct{ threads, wl int }
	var cells []cell
	for ti := range counts {
		for wi := range stamp {
			cells = append(cells, cell{ti, wi})
		}
	}
	rows, err := campaign.Map(ctxOrBackground(), Parallel, len(cells), func(i int) (Fig5Row, error) {
		return overheadRow(stamp[cells[i].wl].Name, counts[cells[i].threads], seed)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64)
	for ti, threads := range counts {
		sum := 0.0
		for wi := range stamp {
			sum += rows[ti*len(stamp)+wi].Overhead
		}
		out[threads] = sum / float64(len(stamp))
		fmt.Fprintf(w, "  %2d threads: mean overhead %s\n", threads, pct(out[threads]))
	}
	return out, nil
}

// overheadRow measures one program's overhead as the paper does:
// seven executions with distinct seeds, dropping the smallest and
// largest overhead, averaging the remaining five.
func overheadRow(name string, threads int, seed int64) (Fig5Row, error) {
	const runs = 7
	type run struct {
		nat, prof uint64
		ov        float64
	}
	results, err := campaign.Map(ctxOrBackground(), Parallel, runs, func(i int) (run, error) {
		native, profiled, ov, err := txsampler.Overhead(name, txsampler.Options{Threads: threads, Seed: seed + int64(i), Hybrid: Hybrid, Context: Context})
		if err != nil {
			return run{}, err
		}
		return run{native.ElapsedCycles, profiled.ElapsedCycles, ov}, nil
	})
	if err != nil {
		return Fig5Row{}, err
	}
	overheads := make([]float64, 0, runs)
	var nat, prof uint64
	for _, r := range results {
		overheads = append(overheads, r.ov)
		nat += r.nat / runs
		prof += r.prof / runs
	}
	sort.Float64s(overheads)
	mean := 0.0
	trimmed := overheads[1 : len(overheads)-1]
	for _, ov := range trimmed {
		mean += ov
	}
	mean /= float64(len(trimmed))
	return Fig5Row{Name: name, NativeCyc: nat, ProfCyc: prof, Overhead: mean}, nil
}

// Table1 prints the CLOMP-TM input characterization.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "=== Table 1: CLOMP-TM inputs ===")
	fmt.Fprintln(w, "  input 1  Adjacent    rare conflicts, cache prefetch friendly")
	fmt.Fprintln(w, "  input 2  FirstParts  high conflicts, cache prefetch friendly")
	fmt.Fprintln(w, "  input 3  Random      rare conflicts, cache prefetch unfriendly")
}

// ClompRow is one CLOMP-TM configuration's decompositions (Figure 7).
type ClompRow struct {
	Name string
	// Share is each execution mode's share of total work W, counted
	// as core.Metrics.TimeIn does; Share[rtm.ModeNone] is non-CS.
	Share [rtm.NumModes]float64
	// Abort counts by cause and their weights.
	Conflicts, Capacity, Sync    uint64
	ConflictW, CapacityW, SyncW  uint64
	AbortCommitRatio, MeanWeight float64
}

// Fig7 profiles the six CLOMP-TM configurations and prints the
// paper's three decompositions.
func Fig7(w io.Writer, threads int, seed int64) ([]ClompRow, error) {
	fmt.Fprintf(w, "=== Figure 7: CLOMP-TM decompositions (%d threads) ===\n", threads)
	cfgs := htmbench.ClompConfigs()
	rows, err := campaign.Map(ctxOrBackground(), Parallel, len(cfgs), func(i int) (ClompRow, error) {
		name := htmbench.ClompName(cfgs[i])
		res, err := txsampler.Run(name, txsampler.Options{Threads: threads, Seed: seed, Profile: true, Hybrid: Hybrid, Context: Context})
		if err != nil {
			return ClompRow{}, err
		}
		r := res.Report
		tot := r.Totals
		wAll := float64(tot.W())
		if wAll == 0 {
			wAll = 1
		}
		row := ClompRow{
			Name:      name,
			Conflicts: tot.AbortCount[htm.Conflict],
			Capacity:  tot.AbortCount[htm.Capacity],
			Sync:      tot.AbortCount[htm.Sync],
			ConflictW: tot.AbortWeight[htm.Conflict],
			CapacityW: tot.AbortWeight[htm.Capacity],
			SyncW:     tot.AbortWeight[htm.Sync],

			AbortCommitRatio: r.AbortCommitRatio(),
			MeanWeight:       r.MeanAbortWeight(),
		}
		for md := range row.Share {
			row.Share[md] = float64(tot.TimeIn(rtm.Mode(md))) / wAll
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "-- time decomposition (share of W) --")
	for _, r := range rows {
		s := r.Share
		bar(w, r.Name,
			[]float64{s[rtm.ModeNone], s[rtm.ModeHTM], s[rtm.ModeLock], s[rtm.ModeWaiting], s[rtm.ModeOverhead]},
			[]string{"nonCS", "HTM", "fallback", "lock_wait", "TX_overhead"})
	}
	fmt.Fprintln(w, "-- abort decomposition (sampled counts) --")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s conflicts=%-6d capacity=%-6d sync=%-4d a/c=%.3f\n",
			r.Name, r.Conflicts, r.Capacity, r.Sync, r.AbortCommitRatio)
	}
	fmt.Fprintln(w, "-- abort weight decomposition --")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s conflict_w=%-9d capacity_w=%-9d sync_w=%-6d mean_w=%.0f\n",
			r.Name, r.ConflictW, r.CapacityW, r.SyncW, r.MeanWeight)
	}
	return rows, nil
}

// Fig8Row is one program's categorization.
type Fig8Row struct {
	Name     string
	Rcs      float64
	RatioAC  float64
	Category analyzer.Category
	Expected analyzer.Category // 0 when the paper does not place it
}

// Fig8 categorizes every non-optimized workload by r_cs and
// abort/commit ratio (the paper's Figure 8).
func Fig8(w io.Writer, threads int, seed int64) ([]Fig8Row, error) {
	fmt.Fprintf(w, "=== Figure 8: application categorization (%d threads) ===\n", threads)
	var wls []*htmbench.Workload
	for _, wl := range htmbench.All() {
		if wl.Suite == "opt" || wl.Suite == "clomp" || wl.Suite == "micro" {
			continue
		}
		wls = append(wls, wl)
	}
	rows, err := campaign.Map(ctxOrBackground(), Parallel, len(wls), func(i int) (Fig8Row, error) {
		wl := wls[i]
		res, err := txsampler.Run(wl.Name, txsampler.Options{Threads: threads, Seed: seed, Profile: true, Hybrid: Hybrid, Context: Context})
		if err != nil {
			return Fig8Row{}, err
		}
		r := res.Report
		return Fig8Row{wl.Name, r.Rcs(), r.AbortCommitRatio(), r.Categorize(), wl.Expected}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Category != rows[j].Category {
			return rows[i].Category < rows[j].Category
		}
		return rows[i].Name < rows[j].Name
	})
	match, total := 0, 0
	for _, r := range rows {
		mark := ""
		if r.Expected != 0 {
			total++
			if r.Expected == r.Category {
				match++
				mark = "  [matches paper]"
			} else {
				mark = fmt.Sprintf("  [paper: %v]", r.Expected)
			}
		}
		fmt.Fprintf(w, "  %-26s r_cs=%s  a/c=%-8.3f %v%s\n", r.Name, pct(r.Rcs), r.RatioAC, r.Category, mark)
	}
	if total > 0 {
		fmt.Fprintf(w, "  category agreement with the paper: %d/%d\n", match, total)
	}
	return rows, nil
}

// Table2Row is one optimization's measured speedup.
type Table2Row struct {
	Code     string
	Base     string
	Opt      string
	Symptom  string
	Solution string
	Paper    float64 // the paper's reported speedup
	Speedup  float64
}

// Table2Pairs lists the paper's optimization case studies and the
// workload pairs that reproduce them.
func Table2Pairs() []Table2Row {
	return []Table2Row{
		{"dedup", "parsec/dedup", "parsec/dedup-opt", "high capacity + sync aborts", "refine hash table, remove system calls", 1.20, 0},
		{"AVL Tree", "app/avltree", "app/avltree-opt", "high T_wait", "elide read lock", 1.21, 0},
		{"histo", "parboil/histo-1", "parboil/histo-1-merged", "high T_oh", "merge transactions", 2.95, 0},
		{"histo-2", "parboil/histo-2", "parboil/histo-2-sorted", "T_oh + severe false sharing", "merge transactions, sort the input", 2.91, 0},
		{"UA", "npb/ua", "npb/ua-merged", "high T_oh", "merge transactions", 1.05, 0},
		{"vacation", "stamp/vacation", "stamp/vacation-opt", "high abort rate", "reduce transaction size", 1.21, 0},
		{"LevelDB", "app/leveldb", "app/leveldb-opt", "high abort rate", "split transactions", 1.05, 0},
		{"SSCA2", "hpcs/ssca2", "hpcs/ssca2-opt", "high T_tx", "defer transaction", 1.10, 0},
		{"netdedup", "parsec/netdedup", "parsec/netdedup-opt", "high sync aborts", "remove system calls", 2.10, 0},
		{"linkedlist", "synchro/linkedlist", "synchro/linkedlist-opt", "high abort rate, low penalty", "limit transaction size (aux locks)", 3.78, 0},
	}
}

// Table2 measures every optimization pair's speedup.
func Table2(w io.Writer, threads int, seed int64) ([]Table2Row, error) {
	fmt.Fprintf(w, "=== Table 2: optimization overview (%d threads) ===\n", threads)
	rows := Table2Pairs()
	speedups, err := campaign.Map(ctxOrBackground(), Parallel, len(rows), func(i int) (float64, error) {
		return txsampler.Speedup(rows[i].Base, rows[i].Opt, txsampler.Options{Threads: threads, Seed: seed, Hybrid: Hybrid, Context: Context})
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Speedup = speedups[i]
		fmt.Fprintf(w, "  %-10s %-34s %-38s measured=%.2fx paper=%.2fx\n",
			rows[i].Code, rows[i].Symptom, rows[i].Solution, rows[i].Speedup, rows[i].Paper)
	}
	return rows, nil
}

// AccuracyComparison quantifies §9's tool comparison: the share of
// in-transaction samples whose full calling context each approach
// recovers, judged against ground truth.
func AccuracyComparison(w io.Writer, threads int, seed int64) error {
	fmt.Fprintf(w, "=== Attribution accuracy: TxSampler vs conventional profiler (%d threads) ===\n", threads)
	names := []string{"parsec/dedup", "micro/deep-calls", "synchro/linkedlist", "stamp/vacation"}
	accs, err := campaign.Map(ctxOrBackground(), Parallel, len(names), func(i int) (txsampler.Accuracy, error) {
		_, acc, err := txsampler.RunWithAccuracy(names[i], txsampler.Options{Threads: threads, Seed: seed, Hybrid: Hybrid, Context: Context})
		return acc, err
	})
	if err != nil {
		return err
	}
	for i, name := range names {
		acc := accs[i]
		if acc.InTx == 0 {
			fmt.Fprintf(w, "  %-26s no in-transaction samples\n", name)
			continue
		}
		fmt.Fprintf(w, "  %-26s in-tx samples=%-5d detected=%s txsampler=%s stack-only=%s\n",
			name, acc.InTx,
			pct(float64(acc.PathDetected)/float64(acc.InTx)),
			pct(float64(acc.TxSamplerCorrect)/float64(acc.InTx)),
			pct(float64(acc.NaiveCorrect)/float64(acc.InTx)))
	}
	fmt.Fprintln(w, "  (a conventional profiler sees only the rolled-back stack: Challenge I/IV)")
	return nil
}

// TSXProfComparison runs the record-and-replay baseline (§9) against
// TxSampler's single-pass overhead on representative workloads, all
// under the package's Hybrid policy.
func TSXProfComparison(w io.Writer, threads int, seed int64) error {
	names := []string{"stamp/vacation", "synchro/linkedlist", "parsec/dedup", "micro/true-sharing"}
	return tsxprof.Compare(w, names, threads, seed, Hybrid, func(name string) (float64, error) {
		row, err := overheadRow(name, threads, seed)
		if err != nil {
			return 0, err
		}
		return row.Overhead, nil
	})
}

// CaseStudy profiles one workload and prints its report plus the
// decision tree walk (the §8 investigations).
func CaseStudy(w io.Writer, name string, threads int, seed int64) (*analyzer.Report, *decision.Advice, error) {
	res, err := txsampler.Run(name, txsampler.Options{Threads: threads, Seed: seed, Profile: true, Hybrid: Hybrid, Context: Context})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "=== Case study: %s ===\n", name)
	res.Report.Render(w)
	fmt.Fprintln(w)
	res.Advice.Render(w)
	return res.Report, res.Advice, nil
}

// MemOverhead reports the collector's memory footprint per thread for
// a few representative workloads (§7.1: <5MB per thread).
func MemOverhead(w io.Writer, threads int, seed int64) (maxPerThread int, err error) {
	fmt.Fprintf(w, "=== Collector memory overhead (%d threads) ===\n", threads)
	names := []string{"parsec/dedup", "stamp/vacation", "synchro/linkedlist", "app/leveldb"}
	pers, err := campaign.Map(ctxOrBackground(), Parallel, len(names), func(i int) (int, error) {
		res, err := txsampler.Run(names[i], txsampler.Options{Threads: threads, Seed: seed, Profile: true, Hybrid: Hybrid, Context: Context})
		if err != nil {
			return 0, err
		}
		return res.CollectorBytes / threads, nil
	})
	if err != nil {
		return 0, err
	}
	for i, name := range names {
		per := pers[i]
		if per > maxPerThread {
			maxPerThread = per
		}
		fmt.Fprintf(w, "  %-26s %6.1f KiB/thread\n", name, float64(per)/1024)
	}
	fmt.Fprintln(w, "  paper bound: < 5 MiB per thread")
	return maxPerThread, nil
}

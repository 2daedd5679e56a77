// Package analyzer is TxSampler's offline data analyzer (paper §6):
// it coalesces the per-thread profiles produced by the collector,
// derives the paper's metrics — time decomposition shares, abort
// penalty and cause ratios, critical-section significance r_cs,
// abort/commit ratio r_a/c, per-thread balance — and renders reports.
// The decision-tree model in the decision package consumes its
// Report.
package analyzer

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
	"txsampler/internal/telemetry"
)

// ThreadSummary is one thread's sampled commit/abort balance, the
// §5 contention histogram.
type ThreadSummary struct {
	TID           int
	CommitSamples uint64
	AbortSamples  uint64 // application aborts only
}

// Report is the merged, derived view of one profiled execution.
type Report struct {
	Program string
	Threads int

	// Merged is the cross-thread coalesced calling context tree.
	Merged *core.Tree
	// Totals aggregates all contexts.
	Totals core.Metrics
	// PerThread holds the §5 per-thread histograms.
	PerThread []ThreadSummary

	// Profiles are the collector's per-thread profiles (not
	// serialized; nil for reports loaded from a profile database).
	// The GUI-style per-context per-thread plots read them.
	Profiles []*core.Profile

	Periods pmu.Periods

	// Quality reports how degraded the underlying data is: the
	// collector's malformed/unresolvable-sample counters plus, when a
	// frontend merged them in, the machine's fault-injection stats.
	Quality core.DataQuality

	// Partial marks a report built from a cooperatively canceled run
	// (SIGINT/SIGTERM or a shard deadline stopped the machine at a
	// quantum boundary): consistent, but covering only a prefix of the
	// workload. Serialized into the profile database's Partial stamp.
	Partial bool

	// Self is the profiler self-report: the telemetry snapshot of the
	// run that produced this profile (machine, collector, and analyzer
	// self-metrics). Nil when telemetry was disabled. Volatile
	// (wall-clock) entries are dropped when the report is serialized.
	Self []telemetry.MetricValue
}

// Analyze coalesces a collector's per-thread profiles into one tree
// and derives the report.
func Analyze(program string, col *core.Collector) *Report {
	return AnalyzeInstrumented(program, col, nil, nil)
}

// AnalyzeInstrumented is Analyze with self-telemetry: the reduction
// becomes a span on the tracer's analyzer track (virtual sequence
// timestamps, deterministic), its wall time lands in reg as a volatile
// gauge, and the trees folded are counted.
func AnalyzeInstrumented(program string, col *core.Collector, tr *telemetry.Tracer, reg *telemetry.Registry) *Report {
	profiles := col.Profiles()
	r := &Report{
		Program:  program,
		Threads:  len(profiles),
		Periods:  col.Periods(),
		Quality:  col.Quality(),
		Profiles: profiles,
		Merged:   newTree(),
	}
	start := time.Now()
	tr.BeginPhase("analyze:reduce")
	// Fold every thread's tree into one fresh tree, so analysis never
	// mutates collector state. Metrics.Merge only sums and children
	// are ordered on output, so the fold order cannot show. The same
	// fold sums each thread's contexts into its totals: the collector
	// charges every sample to exactly one context.
	for _, p := range profiles {
		var tot core.Metrics
		r.Merged.Merge(p.Tree, func(dst, src *core.Metrics) {
			dst.Merge(src)
			tot.Merge(src)
		})
		r.Totals.Merge(&tot)
		r.PerThread = append(r.PerThread, ThreadSummary{
			TID:           p.TID,
			CommitSamples: tot.CommitSamples,
			AbortSamples:  tot.AppAborts(),
		})
	}
	tr.EndPhase("analyze:reduce")
	if reg != nil {
		reg.Counter("analyzer.merges").Add(uint64(len(profiles)))
		reg.Gauge("analyzer.merged.nodes", false).Set(uint64(r.Merged.Size()))
		reg.Gauge("analyzer.phase.reduce.wall_ns", true).Set(uint64(time.Since(start)))
	}
	return r
}

func newTree() *core.Tree { return cct.NewTree[core.Metrics]() }

// Rcs returns the critical-section duration ratio r_cs = T/W
// (paper §7.3). Zero when no cycles samples were taken.
func (r *Report) Rcs() float64 { return ratio(r.Totals.T(), r.Totals.W()) }

// TimeShares returns each execution mode's share of T (Equation 2,
// extended with the hybrid-TM stm, pmem flush, and elided-lock
// modes). A base mode's share includes its elided refinement, so the
// base modes' shares sum to 1 whenever T > 0; an elided mode's share
// is the refinement alone. The ModeNone entry is 0: S lies outside T.
func (r *Report) TimeShares() [rtm.NumModes]float64 {
	var shares [rtm.NumModes]float64
	t := r.Totals.T()
	for md := range shares {
		if rtm.Mode(md) != rtm.ModeNone {
			shares[md] = ratio(r.Totals.TimeIn(rtm.Mode(md)), t)
		}
	}
	return shares
}

// StmOverhead returns the instrumentation-overhead ratio of the
// hybrid-TM slow path: cycles samples in instrumented software
// transactions per cycles sample in hardware transactions (stm ÷ htm).
// Zero when no software transactions ran; large values mean the
// workload pays heavily for STM coexistence (the HyTM cost both
// Alistarh et al. and Brown & Ravi bound from below).
func (r *Report) StmOverhead() float64 {
	return ratio(r.Totals.TimeIn(rtm.ModeSTM), r.Totals.TimeIn(rtm.ModeHTM))
}

// AbortCommitRatio returns r_a/c over sampled application aborts and
// commits, scaled by their sampling periods so differing periods
// still compare event counts.
func (r *Report) AbortCommitRatio() float64 {
	a := float64(r.Totals.AppAborts()) * float64(max64(r.Periods[pmu.TxAbort], 1))
	c := float64(r.Totals.CommitSamples) * float64(max64(r.Periods[pmu.TxCommit], 1))
	if c == 0 {
		if a == 0 {
			return 0
		}
		return inf
	}
	return a / c
}

const inf = 1e18

// CauseShare returns cause's share of the total application abort
// weight (Equation 4's r_conflict and friends).
func (r *Report) CauseShare(c htm.Cause) float64 {
	return ratio(r.Totals.AbortWeight[c], r.Totals.AppAbortWeight())
}

// MeanAbortWeight returns w_t (Equation 3) over all sampled
// application aborts.
func (r *Report) MeanAbortWeight() float64 {
	n := r.Totals.AppAborts()
	if n == 0 {
		return 0
	}
	return float64(r.Totals.AppAbortWeight()) / float64(n)
}

// FalseSharingShare returns false-sharing samples over all contention
// samples.
func (r *Report) FalseSharingShare() float64 {
	return ratio(r.Totals.FalseSharing, r.Totals.TrueSharing+r.Totals.FalseSharing)
}

// Category is the paper's Figure 8 program classification.
type Category int

const (
	// TypeI: critical sections are insignificant (r_cs < 0.2).
	TypeI Category = iota + 1
	// TypeII: significant critical sections, low abort/commit ratio.
	TypeII
	// TypeIII: significant critical sections, aborts exceed commits.
	TypeIII
)

func (c Category) String() string {
	switch c {
	case TypeI:
		return "Type I (CS < 20%)"
	case TypeII:
		return "Type II (CS >= 20%, abort/commit <= 1)"
	case TypeIII:
		return "Type III (CS >= 20%, abort/commit > 1)"
	}
	return "unknown"
}

// Categorize applies Figure 8's thresholds.
func (r *Report) Categorize() Category {
	if r.Rcs() < 0.2 {
		return TypeI
	}
	if r.AbortCommitRatio() <= 1 {
		return TypeII
	}
	return TypeIII
}

// Imbalance returns max/mean of per-thread sampled commit counts — a
// histogram skew indicator for §5's contention metrics (1 = balanced).
func (r *Report) Imbalance() float64 {
	if len(r.PerThread) == 0 {
		return 1
	}
	var sum, maxN uint64
	for _, t := range r.PerThread {
		sum += t.CommitSamples
		if t.CommitSamples > maxN {
			maxN = t.CommitSamples
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(r.PerThread))
	return float64(maxN) / mean
}

// WastedWorkShare estimates the fraction of all cycles burned in
// aborted transaction attempts: aggregate application abort weight over
// the work estimated from cycles samples (VTune's "wasted cycles"
// metric, §9). Returns 0 when no cycles samples were taken.
func (r *Report) WastedWorkShare() float64 {
	totalCycles := float64(r.Totals.W()) * float64(max64(r.Periods[pmu.Cycles], 1))
	if totalCycles == 0 {
		return 0
	}
	// Weights are sampled once per Periods[TxAbort] aborts.
	wasted := float64(r.Totals.AppAbortWeight()) * float64(max64(r.Periods[pmu.TxAbort], 1))
	share := wasted / totalCycles
	if share > 1 {
		share = 1
	}
	return share
}

// ImbalancedContext reports a calling context whose per-thread
// critical-section samples are skewed — §5's contention histogram
// finding ("a thread may always abort other threads, causing thread
// starvation").
type ImbalancedContext struct {
	Frames []lbr.IP
	Skew   float64 // max over mean
}

// ImbalancedContexts scans the hottest critical-section contexts for
// per-thread skew above the threshold (e.g. 2.0 = one thread gets
// twice the mean). It needs the collector's per-thread trees, so it
// returns nil for reports loaded from a profile database.
func (r *Report) ImbalancedContexts(k int, threshold float64) []ImbalancedContext {
	if r.Profiles == nil || len(r.Profiles) < 2 {
		return nil
	}
	var out []ImbalancedContext
	for _, hot := range r.TopTime(k) {
		var sum, maxV uint64
		for _, p := range r.Profiles {
			n := p.Tree.Root
			for _, f := range hot.Frames {
				if n = n.Lookup(f); n == nil {
					break
				}
			}
			if n != nil {
				v := n.Data.T()
				sum += v
				maxV = max(maxV, v)
			}
		}
		if sum == 0 {
			continue
		}
		mean := float64(sum) / float64(len(r.Profiles))
		if skew := float64(maxV) / mean; skew >= threshold {
			out = append(out, ImbalancedContext{Frames: hot.Frames, Skew: skew})
		}
	}
	return out
}

// HotContext is one ranked calling context.
type HotContext struct {
	Frames  []lbr.IP
	Metrics core.Metrics
}

func (h HotContext) Path() string {
	parts := make([]string, len(h.Frames))
	for i, f := range h.Frames {
		parts[i] = f.String()
	}
	return strings.Join(parts, " > ")
}

// TopBy returns the k contexts with the largest value(metrics),
// considering only nodes where the metric was directly recorded.
func (r *Report) TopBy(k int, value func(*core.Metrics) uint64) []HotContext {
	var all []HotContext
	r.Merged.Walk(func(n *core.Node, _ int) {
		if v := value(&n.Data); v > 0 {
			all = append(all, HotContext{Frames: n.Frames(), Metrics: n.Data})
		}
	})
	sort.SliceStable(all, func(i, j int) bool {
		return value(&all[i].Metrics) > value(&all[j].Metrics)
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TopAbortWeight ranks contexts by total application abort weight —
// the paper's "sort abort weight" investigation step (§8.1).
func (r *Report) TopAbortWeight(k int) []HotContext {
	return r.TopBy(k, (*core.Metrics).AppAbortWeight)
}

// TopTime ranks contexts by critical-section samples.
func (r *Report) TopTime(k int) []HotContext {
	return r.TopBy(k, (*core.Metrics).T)
}

// TopMode ranks contexts by cycles samples in one execution mode,
// counted as TimeIn does: rtm.ModeSTM finds the call paths paying the
// most STM instrumentation cost, rtm.ModeFlush the flush sites paying
// the most persistence-stall cycles.
func (r *Report) TopMode(k int, mode rtm.Mode) []HotContext {
	return r.TopBy(k, func(m *core.Metrics) uint64 { return m.TimeIn(mode) })
}

// TopFalseSharing ranks contexts by false-sharing samples.
func (r *Report) TopFalseSharing(k int) []HotContext {
	return r.TopBy(k, func(m *core.Metrics) uint64 { return m.FalseSharing })
}

// Render writes a human-readable report in the spirit of the paper's
// GUI metric pane.
func (r *Report) Render(w io.Writer) {
	t := r.Totals
	fmt.Fprintf(w, "=== TxSampler report: %s (%d threads) ===\n", r.Program, r.Threads)
	fmt.Fprintf(w, "samples: W=%d T=%d (r_cs=%.2f)\n", t.W(), t.T(), r.Rcs())
	sh := r.TimeShares()
	fmt.Fprintf(w, "time in CS: tx=%.1f%% fallback=%.1f%% lock-wait=%.1f%% overhead=%.1f%%\n",
		100*sh[rtm.ModeHTM], 100*sh[rtm.ModeLock], 100*sh[rtm.ModeWaiting], 100*sh[rtm.ModeOverhead])
	stm, flush := t.TimeIn(rtm.ModeSTM), t.TimeIn(rtm.ModeFlush)
	if stm > 0 {
		fmt.Fprintf(w, "hybrid: stm=%.1f%% of CS; instrumentation overhead stm/htm=%.2f\n",
			100*sh[rtm.ModeSTM], r.StmOverhead())
	}
	if flush > 0 {
		fmt.Fprintf(w, "pmem: persist=%.1f%% of CS (persistence stalls: flush+fence+commit-record)\n",
			100*sh[rtm.ModeFlush])
	}
	fmt.Fprintf(w, "aborts/commits (sampled, scaled): ratio=%.3f mean-weight=%.0f\n",
		r.AbortCommitRatio(), r.MeanAbortWeight())
	fmt.Fprintf(w, "abort weight shares: conflict=%.1f%% capacity=%.1f%% sync=%.1f%%\n",
		100*r.CauseShare(htm.Conflict), 100*r.CauseShare(htm.Capacity), 100*r.CauseShare(htm.Sync))
	if t.ConflictTx+t.ConflictNonTx > 0 {
		fmt.Fprintf(w, "conflict sources: transactional=%d non-transactional(lock)=%d\n",
			t.ConflictTx, t.ConflictNonTx)
	}
	fmt.Fprintf(w, "sharing: true=%d false=%d (false share %.1f%%)\n",
		t.TrueSharing, t.FalseSharing, 100*r.FalseSharingShare())
	fmt.Fprintf(w, "category: %s; commit imbalance=%.2f; wasted work=%.1f%%\n",
		r.Categorize(), r.Imbalance(), 100*r.WastedWorkShare())
	if q := r.Quality; q.Degraded() > 0 {
		fmt.Fprintf(w, "data quality: DEGRADED (%d events): injected=%d malformed=%d unresolved-in-tx=%d inconsistent-state=%d dropped=%d coalesced=%d\n",
			q.Degraded(), q.Injected.Total(), q.MalformedSamples, q.UnresolvedInTx,
			q.InconsistentState, q.Injected.DroppedSamples, q.Injected.CoalescedSamples)
	} else {
		fmt.Fprintf(w, "data quality: clean (truncated in-tx paths: %d)\n", q.TruncatedPaths)
	}
	for _, ic := range r.ImbalancedContexts(5, 3.0) {
		fmt.Fprintf(w, "imbalanced context (skew %.1f): %s\n", ic.Skew, HotContext{Frames: ic.Frames}.Path())
	}
	if hot := r.TopAbortWeight(3); len(hot) > 0 {
		fmt.Fprintf(w, "hottest abort contexts:\n")
		for _, h := range hot {
			fmt.Fprintf(w, "  %s\n", h.Path())
		}
	}
	if hot := r.TopTime(3); len(hot) > 0 {
		fmt.Fprintf(w, "hottest CS contexts:\n")
		for _, h := range hot {
			fmt.Fprintf(w, "  %s (T=%d)\n", h.Path(), h.Metrics.T())
		}
	}
	if stm > 0 {
		if hot := r.TopMode(3, rtm.ModeSTM); len(hot) > 0 {
			fmt.Fprintf(w, "hottest instrumented (stm) contexts:\n")
			for _, h := range hot {
				s, x := h.Metrics.TimeIn(rtm.ModeSTM), h.Metrics.TimeIn(rtm.ModeHTM)
				fmt.Fprintf(w, "  %s (stm=%d htm=%d stm/htm=%.2f)\n", h.Path(), s, x, ratio(s, x))
			}
		}
	}
	if flush > 0 {
		if hot := r.TopMode(3, rtm.ModeFlush); len(hot) > 0 {
			fmt.Fprintf(w, "hottest persistence-stall (flush) contexts:\n")
			for _, h := range hot {
				f := h.Metrics.TimeIn(rtm.ModeFlush)
				fmt.Fprintf(w, "  %s (persist=%d, %.1f%% of context CS)\n",
					h.Path(), f, 100*ratio(f, h.Metrics.T()))
			}
		}
	}
	if sites := r.ElisionSites(); len(sites) > 0 {
		r.renderElision(w, sites)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

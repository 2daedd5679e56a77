// Package decision implements TxSampler's decision-tree model
// (paper Figure 1): a structured walk over the analyzer's metrics
// that pinpoints the bottleneck class and emits the paper's
// rule-of-thumb optimization suggestions. The numbered steps mirror
// the figure's annotations (the ①–⑥ trace of the Dedup case study).
package decision

import (
	"fmt"
	"io"
	"strings"

	"txsampler/internal/analyzer"
	"txsampler/internal/htm"
	"txsampler/internal/rtm"
)

// Thresholds parameterize the tree's branch tests. Zero values take
// the paper's defaults.
type Thresholds struct {
	MinRcs        float64 // "CS time significant": T/W (default 0.2)
	LargeShare    float64 // a time component is "large" (default 0.3)
	LargeOverhead float64 // Toh is "large" (default 0.15)
	HighCause     float64 // an abort cause share is "high" (default 0.3)
	HighFalse     float64 // false sharing share is "high" (default 0.3)
	HighRatio     float64 // abort/commit ratio is "high" (default 1.0)
	HighSkew      float64 // per-thread commit skew is "imbalanced" (default 2.5)
}

func (t Thresholds) withDefaults() Thresholds {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&t.MinRcs, 0.2)
	def(&t.LargeShare, 0.3)
	def(&t.LargeOverhead, 0.15)
	def(&t.HighCause, 0.3)
	def(&t.HighFalse, 0.3)
	def(&t.HighRatio, 1.0)
	def(&t.HighSkew, 2.5)
	return t
}

// Step is one visited decision-tree node.
type Step struct {
	ID      int    // ①, ②, ... as in Figure 1
	Node    string // which box of the tree
	Finding string // the measured fact that drove the branch
}

// Advice is the result of one tree walk.
type Advice struct {
	Steps       []Step
	Suggestions []string
}

func (a *Advice) step(id int, node, format string, args ...any) {
	a.Steps = append(a.Steps, Step{ID: id, Node: node, Finding: fmt.Sprintf(format, args...)})
}

func (a *Advice) suggest(ss ...string) { a.Suggestions = append(a.Suggestions, ss...) }

// Render writes the walk and the suggestions.
func (a *Advice) Render(w io.Writer) {
	fmt.Fprintln(w, "--- decision tree walk (Figure 1) ---")
	for _, s := range a.Steps {
		fmt.Fprintf(w, " (%d) %-22s %s\n", s.ID, s.Node, s.Finding)
	}
	fmt.Fprintln(w, "suggestions:")
	for _, s := range a.Suggestions {
		fmt.Fprintf(w, "  * %s\n", s)
	}
}

// String renders the advice to a string.
func (a *Advice) String() string {
	var b strings.Builder
	a.Render(&b)
	return b.String()
}

// Evaluate walks the decision tree over a report.
func Evaluate(r *analyzer.Report, th Thresholds) *Advice {
	th = th.withDefaults()
	a := &Advice{}

	// (1) Time analysis: is critical-section time significant?
	rcs := r.Rcs()
	a.step(1, "time analysis", "T/W = %.1f%%", 100*rcs)
	if rcs < th.MinRcs {
		a.suggest("No HTM-related performance issue: critical sections take <" +
			fmt.Sprintf("%.0f%%", 100*th.MinRcs) + " of execution; optimize elsewhere.")
		return a
	}

	// (2) Decompose T.
	sh := r.TimeShares()
	tx, stm, fb, wait, oh, persist := sh[rtm.ModeHTM], sh[rtm.ModeSTM], sh[rtm.ModeLock],
		sh[rtm.ModeWaiting], sh[rtm.ModeOverhead], sh[rtm.ModeFlush]
	a.step(2, "time decomposition", "tx=%.0f%% stm=%.0f%% fb=%.0f%% wait=%.0f%% oh=%.0f%%",
		100*tx, 100*stm, 100*fb, 100*wait, 100*oh)
	if stm >= th.LargeShare {
		a.step(2, "large T_stm", "software slow path takes %.0f%% of T (stm/htm overhead %.2f)",
			100*stm, r.StmOverhead())
		a.suggest("Software transactions dominate: shrink read/write sets or raise the HTM retry budget so more sections commit in hardware.")
	}
	if persist >= th.LargeShare {
		a.step(2, "large T_persist", "persist epilogue takes %.0f%% of T (persistence stalls)",
			100*persist)
		a.suggest("Durable commits dominate: batch small persistent transactions, or shrink write sets so each commit flushes fewer lines.")
	}

	needAbort := false
	switch {
	case wait >= th.LargeShare:
		a.step(2, "high lock waiting", "T_wait = %.0f%% of T", 100*wait)
		a.suggest(
			"Elide read locks where possible.",
			"Use fine-grained locks to serialize instead of the single global fallback lock.")
		needAbort = true
	case fb >= th.LargeShare:
		a.step(2, "large T_fb", "T_fb = %.0f%% of T", 100*fb)
		needAbort = true
	}
	if oh >= th.LargeOverhead {
		a.step(2, "large T_oh", "T_oh = %.0f%% of T", 100*oh)
		a.suggest("Merge multiple small transactions into a larger one to amortize begin/end overhead.")
	}
	if !needAbort && r.AbortCommitRatio() > th.HighRatio {
		// Even with a time profile dominated by Ttx, a pathological
		// abort rate warrants abort analysis.
		needAbort = true
	}
	if !needAbort {
		if tx >= th.LargeShare && len(a.Suggestions) == 0 {
			a.step(2, "large T_tx", "transaction path dominates; usually no action needed")
			a.suggest("Transaction path dominates with few aborts: no HTM-specific optimization recommended.")
		}
		return a
	}

	// (3) Abort analysis: locate the worst place.
	a.step(3, "abort analysis", "abort/commit = %.2f, mean abort weight = %.0f",
		r.AbortCommitRatio(), r.MeanAbortWeight())
	if hot := r.TopAbortWeight(1); len(hot) > 0 {
		a.step(3, "hottest abort context", "%s", hot[0].Path())
	}

	// (4) Analyze abort type.
	conflict := r.CauseShare(htm.Conflict)
	capacity := r.CauseShare(htm.Capacity)
	sync := r.CauseShare(htm.Sync)
	a.step(4, "analyze abort type", "conflict=%.0f%% capacity=%.0f%% sync=%.0f%%",
		100*conflict, 100*capacity, 100*sync)

	if conflict >= th.HighCause {
		// (5) Conflicts: true vs false sharing.
		fss := r.FalseSharingShare()
		if fss >= th.HighFalse && r.Totals.FalseSharing > 0 {
			a.step(5, "false sharing", "false-sharing share of contention = %.0f%%", 100*fss)
			a.suggest(
				"Relocate contended data to different cache lines (pad or realign).",
				"Relocate data so each thread's updates stay on thread-local cache lines.")
		} else {
			a.step(5, "shared data contention", "true sharing dominates contention")
			a.suggest(
				"Redesign the algorithm to reduce shared-data conflicts.",
				"Shrink transactions to narrow the conflict window.",
				"Split transactions so independent updates do not conflict.")
		}
	}
	if capacity >= th.HighCause {
		a.step(5, "footprint large", "capacity share = %.0f%% (read w=%d, write w=%d)",
			100*capacity, r.Totals.CapReadW, r.Totals.CapWriteW)
		a.suggest(
			"Redesign the data structure to reduce the transactional footprint.",
			"Split or shrink transactions so the working set fits the L1 capacity.",
			"Relocate data to share cache lines (improve locality of the footprint).")
	}
	if sync >= th.HighCause {
		// (6) Unfriendly instructions.
		a.step(6, "unfriendly instructions", "synchronous abort share = %.0f%%", 100*sync)
		a.suggest(
			"Move unfriendly instructions (system calls, page-faulting accesses) out of transactions.",
			"Use an HTM-friendly equivalent for the unfriendly operation.")
	}
	// Per-context refinement: the paper re-applies the abort analysis
	// to each hot transaction (§8.1 finds hashtable_search's capacity
	// aborts and write_file's synchronous aborts separately, even
	// though neither dominates the program-wide mix).
	totalCapW := r.Totals.CapReadW + r.Totals.CapWriteW
	for _, hot := range r.TopAbortWeight(3) {
		m := hot.Metrics
		total := m.AppAbortWeight()
		if total == 0 {
			continue
		}
		leaf := hot.Frames[len(hot.Frames)-1].String()
		local := func(c htm.Cause) float64 { return float64(m.AbortWeight[c]) / float64(total) }
		// A context concentrating the program's capacity-abort weight
		// is a footprint problem even when conflicts dominate its own
		// abort mix (the paper's Figure 9 reads the "capacity abort"
		// column per context).
		if capacity < th.HighCause && totalCapW > 0 {
			if capShare := float64(m.CapReadW+m.CapWriteW) / float64(totalCapW); capShare >= th.HighCause {
				a.step(5, "footprint large", "%s: %.0f%% of all capacity abort weight", leaf, 100*capShare)
				a.suggest("Split or shrink transactions so the working set fits the L1 capacity (hot: " + leaf + ").")
			}
		}
		if v := local(htm.Sync); v >= th.HighCause && sync < th.HighCause {
			a.step(6, "unfriendly instructions", "%s: synchronous share %.0f%% within this transaction", leaf, 100*v)
			a.suggest("Move unfriendly instructions (system calls, page faults) out of the transaction at " + leaf + ".")
		}
	}
	// Contention metrics (§5): an imbalanced commit histogram means
	// some threads starve (e.g. one thread keeps aborting the others).
	if skew := r.Imbalance(); skew >= th.HighSkew {
		a.step(5, "thread imbalance", "max/mean commit skew = %.1f", skew)
		a.suggest("Redistribute the work across threads to balance transaction execution.")
	}
	if len(a.Suggestions) == 0 {
		a.suggest("Aborts are frequent but no single cause dominates: inspect the per-context abort weights.")
	}
	return a
}

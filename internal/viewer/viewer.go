// Package viewer renders profile databases for humans — the
// text-mode analogue of the paper's GUI (§6): a calling-context view
// with metric columns (Figure 9), and per-thread commit/abort
// histograms for spotting imbalance (§5's contention metrics).
package viewer

import (
	"fmt"
	"io"
	"strings"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/telemetry"
)

// minShare hides contexts holding less than 1% of both the total
// critical-section samples and the abort weight.
const minShare = 0.01

// contextRow is one line of the calling-context view: a context's
// inclusive (subtree) shares of the profile's critical-section time,
// application abort weight, and capacity abort weight, in percent.
type contextRow struct {
	Label    string // indented frame label
	TShare   float64
	AWShare  float64
	CapShare float64
}

// contextRows walks the merged calling context tree into the rows
// that Tree and HTML render. It prunes contexts below minShare of both
// critical-section time and abort weight.
func contextRows(r *analyzer.Report) []contextRow {
	totalT := float64(r.Totals.T())
	totalAW := float64(r.Totals.AppAbortWeight())
	totalCap := float64(r.Totals.CapReadW + r.Totals.CapWriteW)
	var rows []contextRow
	var rec func(n *core.Node, depth int)
	rec = func(n *core.Node, depth int) {
		// Inclusive metrics: sum over the subtree.
		inc := subtreeMetrics(n)
		tShare := share(float64(inc.T()), totalT)
		awShare := share(float64(inc.AppAbortWeight()), totalAW)
		if depth > 0 && tShare < minShare && awShare < minShare {
			return
		}
		label := n.Frame.String()
		if depth == 0 {
			label = "<thread root>"
		}
		rows = append(rows, contextRow{
			Label:    strings.Repeat("  ", depth) + label,
			TShare:   100 * tShare,
			AWShare:  100 * awShare,
			CapShare: 100 * share(float64(inc.CapReadW+inc.CapWriteW), totalCap),
		})
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(r.Merged.Root, 0)
	return rows
}

// Tree writes the calling-context view: every context's share of
// critical-section time, abort weight, and capacity abort weight —
// the columns of the paper's Figure 9 screenshot.
func Tree(w io.Writer, r *analyzer.Report) {
	fmt.Fprintf(w, "%-64s %9s %12s %14s\n", "scope", "CS time", "abort weight", "capacity abort")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 102))
	for _, row := range contextRows(r) {
		fmt.Fprintf(w, "%-64s %8.1f%% %11.1f%% %13.1f%%\n", row.Label, row.TShare, row.AWShare, row.CapShare)
	}
}

func share(v, total float64) float64 {
	if total == 0 {
		return 0
	}
	return v / total
}

func subtreeMetrics(n *core.Node) core.Metrics {
	m := n.Data
	for _, c := range n.Children() {
		cm := subtreeMetrics(c)
		m.Merge(&cm)
	}
	return m
}

// ContextHistogram plots one metric of one calling context across
// threads — the paper GUI's "plotting per-thread metrics on any given
// context" (§6), the view that exposes per-thread imbalance such as a
// starving thread. The context is addressed by its function path;
// metric extracts the value from the per-thread node.
func ContextHistogram(w io.Writer, r *analyzer.Report, path []lbr.IP, metricName string, metric func(*core.Metrics) uint64) {
	if r.Profiles == nil {
		fmt.Fprintln(w, "per-thread trees unavailable (profile loaded from disk)")
		return
	}
	const width = 40
	values := make([]uint64, len(r.Profiles))
	var maxV uint64 = 1
	for i, p := range r.Profiles {
		// Sum the metric over every node matching the path. A path
		// element with an empty site matches any site of that
		// function, and the value is inclusive of the subtree.
		nodes := []*core.Node{p.Tree.Root}
		for _, f := range path {
			var next []*core.Node
			for _, n := range nodes {
				for _, c := range n.Children() {
					if c.Frame.Fn == f.Fn && (f.Site == "" || c.Frame.Site == f.Site) {
						next = append(next, c)
					}
				}
			}
			nodes = next
		}
		for _, n := range nodes {
			m := subtreeMetrics(n)
			values[i] += metric(&m)
		}
		if values[i] > maxV {
			maxV = values[i]
		}
	}
	var label strings.Builder
	for i, f := range path {
		if i > 0 {
			label.WriteString(" > ")
		}
		label.WriteString(f.String())
	}
	fmt.Fprintf(w, "%s of %s across threads\n", metricName, label.String())
	for i, v := range values {
		n := int(v * width / maxV)
		fmt.Fprintf(w, "  t%02d %-8d |%-*s|\n", i, v, width, strings.Repeat("#", n))
	}
}

// DataQuality writes the degradation panel: whether the profile's
// input data was corrupted or lost (fault injection, dropped PMU
// samples, unresolvable LBRs) and by how much, so a reader knows how
// far to trust the numbers above it.
func DataQuality(w io.Writer, r *analyzer.Report) {
	q := r.Quality
	if q.Degraded() == 0 {
		fmt.Fprintf(w, "data quality: clean")
		if q.TruncatedPaths > 0 {
			fmt.Fprintf(w, " (%d in-tx paths truncated by LBR capacity)", q.TruncatedPaths)
		}
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "data quality: DEGRADED — %d events\n", q.Degraded())
	row := func(label string, v uint64) {
		if v > 0 {
			fmt.Fprintf(w, "  %-28s %d\n", label, v)
		}
	}
	row("spurious aborts injected", q.Injected.SpuriousAborts)
	row("PMU samples dropped", q.Injected.DroppedSamples)
	row("PMU samples coalesced", q.Injected.CoalescedSamples)
	row("LBRs truncated", q.Injected.TruncatedLBRs)
	row("LBRs with stale entries", q.Injected.StaleLBRs)
	row("LBR abort bits cleared", q.Injected.ClearedAbortBits)
	row("thread stalls", q.Injected.Stalls)
	row("clock-skew spikes", q.Injected.ClockSkews)
	row("malformed samples", q.MalformedSamples)
	row("unresolved in-tx contexts", q.UnresolvedInTx)
	row("inconsistent state words", q.InconsistentState)
	row("truncated in-tx paths", q.TruncatedPaths)
}

// SelfReport writes the profiler self-report: the telemetry snapshot
// of the run that produced this profile (samples ingested, LBR
// pairings, cache-conflict aborts, context-cache hit rate, per-phase
// wall time). Silent when the run had telemetry disabled.
func SelfReport(w io.Writer, r *analyzer.Report) {
	if len(r.Self) == 0 {
		return
	}
	fmt.Fprintln(w, "=== Profiler self-report ===")
	telemetry.WriteText(w, r.Self)
}

// Histogram writes the per-thread commit/abort bar chart the paper's
// GUI plots for any context — here for the whole program — so
// imbalance (e.g. a thread that always aborts the others) is visible
// at a glance.
func Histogram(w io.Writer, r *analyzer.Report) {
	const width = 40
	var maxV uint64 = 1
	for _, t := range r.PerThread {
		if t.CommitSamples > maxV {
			maxV = t.CommitSamples
		}
		if t.AbortSamples > maxV {
			maxV = t.AbortSamples
		}
	}
	bar := func(v uint64) string {
		n := int(v * width / maxV)
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(w, "per-thread commit/abort samples (imbalance %.2f)\n", r.Imbalance())
	for _, t := range r.PerThread {
		fmt.Fprintf(w, "  t%02d commits %-6d |%-*s|\n", t.TID, t.CommitSamples, width, bar(t.CommitSamples))
		fmt.Fprintf(w, "      aborts  %-6d |%-*s|\n", t.AbortSamples, width, bar(t.AbortSamples))
	}
}

package analyzer

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/rtm"
)

// Delta is one calling context's change between two profiles.
type Delta struct {
	Frames []lbr.IP
	// Before/After are the context's inclusive critical-section
	// samples and application abort weight in each profile.
	TBefore, TAfter   uint64
	AWBefore, AWAfter uint64
}

// Path renders the context.
func (d Delta) Path() string {
	parts := make([]string, len(d.Frames))
	for i, f := range d.Frames {
		parts[i] = f.String()
	}
	return strings.Join(parts, " > ")
}

// Diff compares two reports context-by-context — the paper's §8
// workflow of re-profiling after each optimization step ("re-applying
// abort analysis (3) and (4)...") made mechanical. It returns the
// contexts with the largest absolute change in critical-section
// samples or abort weight, largest first.
func Diff(before, after *Report, k int) []Delta {
	type acc struct {
		t  [2]uint64
		aw [2]uint64
	}
	byPath := map[string]*acc{}
	frames := map[string][]lbr.IP{}

	collect := func(r *Report, idx int) {
		r.Merged.Walk(func(n *core.Node, _ int) {
			t, aw := n.Data.T(), n.Data.AppAbortWeight()
			if t == 0 && aw == 0 {
				return
			}
			fs := n.Frames()
			key := pathKey(fs)
			a := byPath[key]
			if a == nil {
				a = &acc{}
				byPath[key] = a
				frames[key] = fs
			}
			a.t[idx] += t
			a.aw[idx] += aw
		})
	}
	collect(before, 0)
	collect(after, 1)

	var out []Delta
	for key, a := range byPath {
		out = append(out, Delta{
			Frames:  frames[key],
			TBefore: a.t[0], TAfter: a.t[1],
			AWBefore: a.aw[0], AWAfter: a.aw[1],
		})
	}
	magnitude := func(d Delta) uint64 {
		return absDiff(d.TBefore, d.TAfter) + absDiff(d.AWBefore, d.AWAfter)/100
	}
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := magnitude(out[i]), magnitude(out[j])
		if mi != mj {
			return mi > mj
		}
		return pathKey(out[i].Frames) < pathKey(out[j].Frames)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// RenderDiff writes a before/after comparison of the headline metrics
// and the top-moving contexts.
func RenderDiff(w io.Writer, before, after *Report, k int) {
	fmt.Fprintf(w, "=== profile diff: %s -> %s ===\n", before.Program, after.Program)
	row := func(name string, b, a float64, unit string) {
		fmt.Fprintf(w, "  %-22s %10.3f -> %-10.3f %s\n", name, b, a, unit)
	}
	row("r_cs", before.Rcs(), after.Rcs(), "")
	row("abort/commit", clampRatio(before.AbortCommitRatio()), clampRatio(after.AbortCommitRatio()), "")
	row("mean abort weight", before.MeanAbortWeight(), after.MeanAbortWeight(), "cycles")
	row("wasted work", before.WastedWorkShare(), after.WastedWorkShare(), "share")
	bs, as := before.TimeShares(), after.TimeShares()
	elided := before.Totals.Elided()+after.Totals.Elided() > 0
	for md := rtm.ModeHTM; md < rtm.NumModes; md++ {
		switch {
		case md == rtm.ModeFlush && before.Totals.Time[md]+after.Totals.Time[md] == 0:
			continue // neither side ran the pmem tier
		case md.Base() != md && !elided:
			continue // neither side ran elided
		}
		row(diffLabels[md]+" share", bs[md], as[md], "")
	}
	if elided {
		diffElisionVerdicts(w, before, after)
	}
	fmt.Fprintln(w, "top moving contexts (CS samples, abort weight):")
	for _, d := range Diff(before, after, k) {
		fmt.Fprintf(w, "  T %5d -> %-5d  AW %8d -> %-8d  %s\n",
			d.TBefore, d.TAfter, d.AWBefore, d.AWAfter, d.Path())
	}
}

// diffLabels names RenderDiff's time-share rows by mode.
var diffLabels = [rtm.NumModes]string{
	rtm.ModeHTM: "T_tx", rtm.ModeSTM: "T_stm", rtm.ModeLock: "T_fb",
	rtm.ModeWaiting: "T_wait", rtm.ModeOverhead: "T_oh", rtm.ModeFlush: "T_persist",
	rtm.ModeElidedHTM: "elided-htm", rtm.ModeElidedSTM: "elided-stm", rtm.ModeElidedLock: "elided-lock",
}

// diffElisionVerdicts lists lock sites whose elision verdict flipped
// between the two profiles — the re-profile-after-each-step workflow
// applied to the elision decision.
func diffElisionVerdicts(w io.Writer, before, after *Report) {
	bv := make(map[string]string)
	for _, s := range before.ElisionSites() {
		bv[s.Site] = s.Verdict()
	}
	var moved []string
	for _, s := range after.ElisionSites() {
		if prev, ok := bv[s.Site]; ok && prev != s.Verdict() {
			moved = append(moved, fmt.Sprintf("  elision verdict %s: %s -> %s", s.Site, prev, s.Verdict()))
		}
	}
	sort.Strings(moved)
	for _, line := range moved {
		fmt.Fprintln(w, line)
	}
}

func pathKey(fs []lbr.IP) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "\x00")
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func clampRatio(v float64) float64 {
	if v > 1e6 {
		return 1e6
	}
	return v
}

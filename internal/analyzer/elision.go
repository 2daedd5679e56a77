package analyzer

import (
	"fmt"
	"io"
	"sort"

	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// ElisionSite aggregates one elided lock site (an rtm.ElidedLock's
// elide:<site> frame subtree): how its critical-section samples split
// across the fallback ladder, and its abort-cause mix. The split is
// the evidence behind the "would elision win?" verdict — the OCC
// question answered with TxSampler-style sampled data instead of
// instrumentation.
type ElisionSite struct {
	Site string

	// Cycles samples inside the site's subtree, by execution mode:
	// Htm are sections that ran speculatively, Stm sections in the
	// instrumented software slow path, Lock sections that acquired the
	// lock (the fallback when eliding; every section when not).
	Htm, Stm, Lock uint64

	// Elided reports whether the site actually ran elided (any sample
	// carried the InElision bit). False means the samples are
	// plain-lock baseline data and the verdict is unavailable.
	Elided bool

	// SpecCommits and SpecAborts are period-scaled estimates of the
	// site's hardware commits and application (non-ambient) aborts —
	// attempt-level evidence for the verdict. Time shares alone
	// mislead here: a section whose every attempt dies to a capacity
	// abort still accrues large Ttx from the doomed speculation, so
	// success must be judged on outcomes, not cycles.
	SpecCommits, SpecAborts uint64

	// Abort-cause mix of the site's speculation attempts.
	AbortCount  [htm.NumCauses]uint64
	AbortWeight [htm.NumCauses]uint64
}

// Executed returns the samples spent executing section bodies (htm +
// stm + lock), the verdict's denominator; waiting and overhead are
// ladder cost, not execution.
func (s ElisionSite) Executed() uint64 { return s.Htm + s.Stm + s.Lock }

// SuccessRate returns the elision success rate: the share of
// speculative attempts that committed, from the period-scaled commit
// and application-abort estimates. When neither event was sampled
// (tiny sites) it falls back to the time-share split.
func (s ElisionSite) SuccessRate() float64 {
	if s.SpecCommits+s.SpecAborts > 0 {
		return ratio(s.SpecCommits, s.SpecCommits+s.SpecAborts)
	}
	return ratio(s.Htm, s.Executed())
}

// SavedCycles estimates the serialized time elision saved: the share
// of speculative cycles belonging to committed attempts — work that
// ran concurrently instead of under the lock. Doomed attempts saved
// nothing, so the htm time is discounted by the success rate.
func (s ElisionSite) SavedCycles(cyclesPeriod uint64) uint64 {
	return uint64(float64(s.Htm*max64(cyclesPeriod, 1)) * s.SuccessRate())
}

// Win reports the verdict: the site ran elided and most of its
// speculative attempts committed. Sites whose attempts mostly abort
// into the STM or the lock pay the ladder's overhead on top of the
// serialization they were meant to avoid — elision loses there.
func (s ElisionSite) Win() bool {
	return s.Elided && s.Executed() > 0 && s.SuccessRate() >= 0.5
}

// Verdict renders the per-site verdict column.
func (s ElisionSite) Verdict() string {
	switch {
	case !s.Elided:
		return "plain-lock"
	case s.Executed() == 0:
		return "no-data"
	case s.Win():
		return "win"
	default:
		return "lose"
	}
}

// TopAbortCause returns the site's dominant application abort cause
// by weight, or htm.None when no application aborts were sampled.
func (s ElisionSite) TopAbortCause() (htm.Cause, uint64) {
	best, bestW := htm.None, uint64(0)
	for c, w := range s.AbortWeight {
		if !htm.Cause(c).Ambient() && w > bestW {
			best, bestW = htm.Cause(c), w
		}
	}
	return best, bestW
}

// ElisionSites aggregates the merged tree's elide:<site> frames into
// per-lock-site elision evidence, ordered by executed samples
// (largest first, ties by site name) for deterministic output. Empty
// when the program has no elidable locks.
func (r *Report) ElisionSites() []ElisionSite {
	acc := make(map[string]*ElisionSite)
	var collect func(n *core.Node, s *ElisionSite)
	collect = func(n *core.Node, s *ElisionSite) {
		d := &n.Data
		s.Htm += d.TimeIn(rtm.ModeHTM)
		s.Stm += d.TimeIn(rtm.ModeSTM)
		s.Lock += d.TimeIn(rtm.ModeLock)
		s.SpecCommits += d.CommitSamples
		if d.Elided() > 0 {
			s.Elided = true
		}
		for c := range d.AbortCount {
			s.AbortCount[c] += d.AbortCount[c]
			s.AbortWeight[c] += d.AbortWeight[c]
		}
		for _, c := range n.Children() {
			collect(c, s)
		}
	}
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if site, ok := rtm.ElisionSiteOf(n.Frame.Fn); ok {
			s := acc[site]
			if s == nil {
				s = &ElisionSite{Site: site}
				acc[site] = s
			}
			collect(n, s)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(r.Merged.Root)
	commitPeriod := max64(r.Periods[pmu.TxCommit], 1)
	abortPeriod := max64(r.Periods[pmu.TxAbort], 1)
	out := make([]ElisionSite, 0, len(acc))
	for _, s := range acc {
		s.SpecCommits *= commitPeriod
		for c, n := range s.AbortCount {
			if !htm.Cause(c).Ambient() {
				s.SpecAborts += n * abortPeriod
			}
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Executed() != out[j].Executed() {
			return out[i].Executed() > out[j].Executed()
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// renderElision writes the per-site verdict table; no output when the
// program has no elidable locks.
func (r *Report) renderElision(w io.Writer, sites []ElisionSite) {
	fmt.Fprintf(w, "lock elision (per site):\n")
	fmt.Fprintf(w, "  %-20s %6s %6s %6s %8s %10s  %s\n",
		"site", "htm", "stm", "lock", "success", "saved(cyc)", "verdict")
	for _, s := range sites {
		line := fmt.Sprintf("  %-20s %6d %6d %6d %7.1f%% %10d  %s",
			s.Site, s.Htm, s.Stm, s.Lock, 100*s.SuccessRate(),
			s.SavedCycles(r.Periods[pmu.Cycles]), s.Verdict())
		if c, cw := s.TopAbortCause(); cw > 0 {
			line += fmt.Sprintf(" (top abort: %v)", c)
		}
		fmt.Fprintln(w, line)
	}
}

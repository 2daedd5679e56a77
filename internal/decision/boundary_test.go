package decision

import (
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/rtm"
)

// nw is a sampled abort population: count and accumulated weight.
type nw struct{ n, w uint64 }

// ctxSpec plants one calling context in the merged tree so the
// per-context refinement loop has something to rank.
type ctxSpec struct {
	path    []string
	aborts  map[htm.Cause]nw
	capRead uint64
}

// spec assembles an analyzer.Report with exact metric ratios. Every
// decision-tree comparison divides small integers (e.g. Twait/T =
// 30/100), and correctly-rounded division makes 29/100, 30/100, 31/100
// compare exactly against the 0.3 literal — so each branch can be
// pinned exactly at, one unit below, and one unit above its threshold.
// As in a real profile, T is the sum of the critical-section buckets:
// a spec that pins one bucket below T = 100 puts the remainder into
// buckets that stay below every threshold.
type spec struct {
	w                                  uint64
	ttx, tstm, tfb, twait, toh, tflush uint64
	commits                            uint64
	aborts                             map[htm.Cause]nw
	trueSh, falseSh                    uint64
	capRead, capWrite                  uint64
	perThread                          []uint64 // sampled commits per thread
	contexts                           []ctxSpec
}

func (s spec) report() *analyzer.Report {
	r := &analyzer.Report{
		Program: "boundary", Threads: len(s.perThread),
		Merged: cct.NewTree[core.Metrics](), Periods: uniform(),
	}
	tot := &r.Totals
	tot.Time = [rtm.NumModes]uint64{
		rtm.ModeHTM: s.ttx, rtm.ModeSTM: s.tstm, rtm.ModeLock: s.tfb,
		rtm.ModeWaiting: s.twait, rtm.ModeOverhead: s.toh, rtm.ModeFlush: s.tflush,
	}
	tot.Time[rtm.ModeNone] = s.w - tot.T()
	tot.CommitSamples = s.commits
	tot.TrueSharing, tot.FalseSharing = s.trueSh, s.falseSh
	tot.CapReadW, tot.CapWriteW = s.capRead, s.capWrite
	for c, a := range s.aborts {
		tot.AbortCount[c], tot.AbortWeight[c] = a.n, a.w
		tot.AbortSamples += a.n
	}
	for _, cx := range s.contexts {
		n := r.Merged.Path(stack(cx.path...))
		for c, a := range cx.aborts {
			n.Data.AbortCount[c], n.Data.AbortWeight[c] = a.n, a.w
		}
		n.Data.CapReadW = cx.capRead
	}
	for i, v := range s.perThread {
		r.PerThread = append(r.PerThread, analyzer.ThreadSummary{TID: i, CommitSamples: v})
	}
	return r
}

// TestRcsBoundary: the tree's entry gate is `rcs < MinRcs` — exactly
// at the threshold must proceed past time analysis; one below stops.
func TestRcsBoundary(t *testing.T) {
	for _, c := range []struct {
		name  string
		t     uint64
		stops bool
	}{
		{"one-below stops", 19, true},
		{"exactly-at proceeds", 20, false},
		{"one-above proceeds", 21, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := spec{w: 100, ttx: c.t, commits: 10}
			a := Evaluate(s.report(), Thresholds{})
			if got := hasSuggestion(a, "No HTM-related"); got != c.stops {
				t.Fatalf("T=%d: early-stop=%v, want %v:\n%s", c.t, got, c.stops, a)
			}
			if c.stops && len(a.Steps) != 1 {
				t.Fatalf("T=%d: early stop took %d steps, want 1", c.t, len(a.Steps))
			}
		})
	}
}

// TestThresholdBoundaries drives every remaining decision-tree branch
// through its threshold boundary. Each case pins one comparison
// exactly at, one unit below, or one unit above the default threshold
// and asserts the branch's step node and suggestion flip together.
// Branch operators differ (>= for shares, strict > for the
// abort/commit ratio), so the exactly-at rows also lock in the
// operator choice.
func TestThresholdBoundaries(t *testing.T) {
	// Shorthand specs. All keep rcs at 1.0 so only the branch under
	// test moves.
	waits := func(x uint64) spec {
		return spec{w: 100, twait: x, ttx: 100 - x, commits: 10}
	}
	fbs := func(x uint64) spec { // rest of T: stm and flush at 29%, overhead <= 13%
		return spec{w: 100, tfb: x, tstm: 29, tflush: 29, toh: 42 - x, commits: 10}
	}
	ohs := func(x uint64) spec {
		return spec{w: 100, toh: x, ttx: 100 - x, commits: 10}
	}
	ratio := func(n uint64) spec { // aborts/commits with 1:1 periods
		return spec{w: 100, ttx: 100, commits: 10,
			aborts: map[htm.Cause]nw{htm.Conflict: {n, 100}}}
	}
	txdom := func(x uint64) spec { // rest of T as in fbs
		return spec{w: 100, ttx: x, tstm: 29, tflush: 29, toh: 42 - x, commits: 10}
	}
	cause := func(c htm.Cause, x uint64) spec { // share x/100, rest Explicit
		return spec{w: 100, ttx: 100, commits: 10,
			aborts: map[htm.Cause]nw{c: {20, x}, htm.Explicit: {10, 100 - x}}}
	}
	falseSh := func(x uint64) spec {
		return spec{w: 100, ttx: 100, commits: 10,
			aborts:  map[htm.Cause]nw{htm.Conflict: {20, 100}},
			trueSh:  100 - x,
			falseSh: x}
	}
	skew := func(per ...uint64) spec {
		return spec{w: 100, ttx: 100, commits: 10,
			aborts:    map[htm.Cause]nw{htm.Conflict: {20, 100}},
			perThread: per}
	}
	ctxCap := func(x uint64) spec { // global capacity share 0.1, one context holds x% of cap weight
		return spec{w: 100, ttx: 100, commits: 10, capRead: 100,
			aborts: map[htm.Cause]nw{htm.Conflict: {20, 90}, htm.Capacity: {2, 10}},
			contexts: []ctxSpec{{path: []string{"main", "hotcap"},
				aborts: map[htm.Cause]nw{htm.Conflict: {10, 50}}, capRead: x}}}
	}
	ctxSync := func(x uint64) spec { // global sync share 0.1, one context locally x%
		return spec{w: 100, ttx: 100, commits: 10,
			aborts: map[htm.Cause]nw{htm.Conflict: {20, 90}, htm.Sync: {2, 10}},
			contexts: []ctxSpec{{path: []string{"main", "syncctx"},
				aborts: map[htm.Cause]nw{htm.Sync: {5, x}, htm.Conflict: {5, 100 - x}}}}}
	}

	cases := []struct {
		name string
		s    spec
		id   int    // step ID to look for (0 = suggestion only)
		node string // step node substring
		sug  string // suggestion substring ("" = step only)
		want bool
	}{
		// wait >= LargeShare (0.3)
		{"wait one-below", waits(29), 2, "high lock waiting", "Elide read locks", false},
		{"wait exactly-at", waits(30), 2, "high lock waiting", "Elide read locks", true},
		{"wait one-above", waits(31), 2, "high lock waiting", "Elide read locks", true},
		// fb >= LargeShare (0.3); firing must open the abort analysis
		{"fb one-below", fbs(29), 2, "large T_fb", "", false},
		{"fb exactly-at", fbs(30), 2, "large T_fb", "", true},
		{"fb one-above", fbs(31), 2, "large T_fb", "", true},
		{"fb one-below skips abort analysis", fbs(29), 3, "abort analysis", "", false},
		{"fb exactly-at reaches abort analysis", fbs(30), 3, "abort analysis", "", true},
		// oh >= LargeOverhead (0.15)
		{"oh one-below", ohs(14), 2, "large T_oh", "Merge multiple small transactions", false},
		{"oh exactly-at", ohs(15), 2, "large T_oh", "Merge multiple small transactions", true},
		{"oh one-above", ohs(16), 2, "large T_oh", "Merge multiple small transactions", true},
		// abort/commit ratio > HighRatio (1.0): STRICT — exactly-at stays out
		{"ratio one-below", ratio(9), 3, "abort analysis", "", false},
		{"ratio exactly-at", ratio(10), 3, "abort analysis", "", false},
		{"ratio one-above", ratio(11), 3, "abort analysis", "", true},
		// tx >= LargeShare (0.3) with nothing else firing
		{"txdom one-below", txdom(29), 2, "large T_tx", "no HTM-specific optimization", false},
		{"txdom exactly-at", txdom(30), 2, "large T_tx", "no HTM-specific optimization", true},
		{"txdom one-above", txdom(31), 2, "large T_tx", "no HTM-specific optimization", true},
		// conflict share >= HighCause (0.3)
		{"conflict one-below", cause(htm.Conflict, 29), 5, "shared data contention", "Redesign the algorithm", false},
		{"conflict exactly-at", cause(htm.Conflict, 30), 5, "shared data contention", "Redesign the algorithm", true},
		{"conflict one-above", cause(htm.Conflict, 31), 5, "shared data contention", "Redesign the algorithm", true},
		// false-sharing share >= HighFalse (0.3) within the conflict branch
		{"false-share one-below", falseSh(29), 5, "false sharing", "different cache lines", false},
		{"false-share exactly-at", falseSh(30), 5, "false sharing", "different cache lines", true},
		{"false-share one-above", falseSh(31), 5, "false sharing", "different cache lines", true},
		{"false-share one-below falls to contention", falseSh(29), 5, "shared data contention", "", true},
		// capacity share >= HighCause (0.3)
		{"capacity one-below", cause(htm.Capacity, 29), 5, "footprint large", "fits the L1 capacity", false},
		{"capacity exactly-at", cause(htm.Capacity, 30), 5, "footprint large", "fits the L1 capacity", true},
		{"capacity one-above", cause(htm.Capacity, 31), 5, "footprint large", "fits the L1 capacity", true},
		// sync share >= HighCause (0.3)
		{"sync one-below", cause(htm.Sync, 29), 6, "unfriendly instructions", "Move unfriendly instructions", false},
		{"sync exactly-at", cause(htm.Sync, 30), 6, "unfriendly instructions", "Move unfriendly instructions", true},
		{"sync one-above", cause(htm.Sync, 31), 6, "unfriendly instructions", "Move unfriendly instructions", true},
		// commit skew >= HighSkew (2.5): max/mean with mean 2.0
		{"skew one-below", skew(4, 2, 1, 1), 5, "thread imbalance", "Redistribute the work", false},
		{"skew exactly-at", skew(5, 1, 1, 1), 5, "thread imbalance", "Redistribute the work", true},
		{"skew one-above", skew(6, 1, 1, 0), 5, "thread imbalance", "Redistribute the work", true},
		// per-context capacity concentration >= HighCause (0.3) while
		// the global capacity share stays below it
		{"ctx-capacity one-below", ctxCap(29), 5, "footprint large", "hotcap", false},
		{"ctx-capacity exactly-at", ctxCap(30), 5, "footprint large", "hotcap", true},
		{"ctx-capacity one-above", ctxCap(31), 5, "footprint large", "hotcap", true},
		// per-context local sync share >= HighCause (0.3) while the
		// global sync share stays below it
		{"ctx-sync one-below", ctxSync(29), 6, "unfriendly instructions", "out of the transaction at", false},
		{"ctx-sync exactly-at", ctxSync(30), 6, "unfriendly instructions", "out of the transaction at", true},
		{"ctx-sync one-above", ctxSync(31), 6, "unfriendly instructions", "out of the transaction at", true},
		// fall-through: frequent aborts, no dominating cause
		{"no dominating cause", spec{w: 100, ttx: 100, commits: 10,
			aborts: map[htm.Cause]nw{htm.Explicit: {10, 40}, htm.Conflict: {10, 20},
				htm.Capacity: {5, 20}, htm.Sync: {5, 20}}},
			0, "", "no single cause dominates", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := Evaluate(c.s.report(), Thresholds{})
			if c.node != "" {
				if got := hasStep(a, c.id, c.node); got != c.want {
					t.Errorf("step (%d) %q present=%v, want %v:\n%s", c.id, c.node, got, c.want, a)
				}
			}
			if c.sug != "" {
				if got := hasSuggestion(a, c.sug); got != c.want {
					t.Errorf("suggestion %q present=%v, want %v:\n%s", c.sug, got, c.want, a)
				}
			}
		})
	}
}

// TestCustomThresholds: explicit thresholds displace the defaults in
// the same boundary-exact way — the knobs are honored, not just the
// paper constants.
func TestCustomThresholds(t *testing.T) {
	// Twait = 40% of T: below a 0.5 threshold, at/above a 0.4 one.
	s := spec{w: 100, twait: 40, ttx: 60, commits: 10}
	if a := Evaluate(s.report(), Thresholds{LargeShare: 0.5}); hasStep(a, 2, "high lock waiting") {
		t.Fatalf("0.40 wait fired at a 0.5 threshold:\n%s", a)
	}
	if a := Evaluate(s.report(), Thresholds{LargeShare: 0.4}); !hasStep(a, 2, "high lock waiting") {
		t.Fatalf("0.40 wait missed an exactly-at 0.4 threshold:\n%s", a)
	}
	// MinRcs raised above the measured 1.0 rcs stops the walk outright.
	if a := Evaluate(spec{w: 100, ttx: 100, commits: 10}.report(),
		Thresholds{MinRcs: 1.5}); !hasSuggestion(a, "No HTM-related") {
		t.Fatalf("rcs below a raised MinRcs did not stop:\n%s", a)
	}
}

package analyzer

import (
	"strings"
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

func stack(fns ...string) []lbr.IP {
	out := make([]lbr.IP, len(fns))
	for i, f := range fns {
		out[i] = lbr.IP{Fn: f}
	}
	return out
}

func abortedLBR() []lbr.Entry {
	return []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}}
}

// feed sends n synthetic cycles samples with the given state.
func feed(c *core.Collector, tid int, n int, state uint32, inTx bool, fns ...string) {
	for i := 0; i < n; i++ {
		s := &machine.Sample{
			Event: pmu.Cycles, TID: tid, State: state,
			Stack: stack(fns...), IP: lbr.IP{Fn: fns[len(fns)-1]},
		}
		if inTx {
			s.LBR = abortedLBR()
		}
		c.HandleSample(s)
	}
}

func feedAbort(c *core.Collector, tid int, cause htm.Cause, weight uint64, fns ...string) {
	c.HandleSample(&machine.Sample{
		Event: pmu.TxAbort, TID: tid,
		Stack: stack(fns...), IP: lbr.IP{Fn: fns[len(fns)-1]},
		LBR:   abortedLBR(),
		Abort: &machine.AbortInfo{Cause: cause, Weight: weight},
	})
}

func feedCommit(c *core.Collector, tid int, n int, fns ...string) {
	for i := 0; i < n; i++ {
		c.HandleSample(&machine.Sample{
			Event: pmu.TxCommit, TID: tid,
			Stack: stack(fns...), IP: lbr.IP{Fn: fns[len(fns)-1]},
		})
	}
}

func periods(cycles, abort, commit uint64) pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = cycles
	p[pmu.TxAbort] = abort
	p[pmu.TxCommit] = commit
	return p
}

func TestRcsAndShares(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 55, 0, false, "main")                         // S
	feed(c, 0, 10, rtm.InCS, true, "main", "tm_begin")       // Ttx
	feed(c, 0, 5, rtm.InCS|rtm.InSTM, false, "main")         // Tstm
	feed(c, 0, 20, rtm.InCS|rtm.InFallback, false, "main")   // Tfb
	feed(c, 0, 5, rtm.InCS|rtm.InLockWaiting, false, "main") // Twait
	feed(c, 0, 5, rtm.InCS|rtm.InOverhead, false, "main")    // Toh
	r := Analyze("synthetic", c)
	if got := r.Rcs(); got != 0.45 {
		t.Errorf("Rcs = %v, want 0.45", got)
	}
	sh := r.TimeShares()
	want := [rtm.NumModes]float64{
		rtm.ModeHTM: 10.0 / 45, rtm.ModeSTM: 5.0 / 45, rtm.ModeLock: 20.0 / 45,
		rtm.ModeWaiting: 5.0 / 45, rtm.ModeOverhead: 5.0 / 45,
	}
	if sh != want {
		t.Errorf("shares = %v, want %v (persist and elided 0 without pmem or elision)", sh, want)
	}
	if got := r.StmOverhead(); got != 0.5 {
		t.Errorf("StmOverhead = %v, want 0.5", got)
	}
}

func TestAbortCommitRatioScalesByPeriod(t *testing.T) {
	// 2 abort samples at period 10 = ~20 aborts; 4 commit samples at
	// period 100 = ~400 commits; ratio 0.05.
	c := core.NewCollector(1, periods(100, 10, 100))
	feedAbort(c, 0, htm.Conflict, 50, "main")
	feedAbort(c, 0, htm.Conflict, 50, "main")
	feedCommit(c, 0, 4, "main")
	r := Analyze("synthetic", c)
	if got := r.AbortCommitRatio(); got != 0.05 {
		t.Errorf("ratio = %v, want 0.05", got)
	}
}

func TestInterruptAbortsExcluded(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feedAbort(c, 0, htm.Interrupt, 100, "main")
	feedAbort(c, 0, htm.Interrupt, 100, "main")
	feedAbort(c, 0, htm.Conflict, 60, "main")
	feedCommit(c, 0, 10, "main")
	r := Analyze("synthetic", c)
	if got := r.AbortCommitRatio(); got != 0.1 {
		t.Errorf("ratio = %v, want 0.1 (interrupt aborts excluded)", got)
	}
	if got := r.CauseShare(htm.Conflict); got != 1.0 {
		t.Errorf("conflict share = %v, want 1.0", got)
	}
	if got := r.MeanAbortWeight(); got != 60 {
		t.Errorf("mean weight = %v, want 60", got)
	}
}

func TestCategorize(t *testing.T) {
	// Type I: r_cs below 0.2.
	c := core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 90, 0, false, "main")
	feed(c, 0, 10, rtm.InCS, true, "main")
	if got := Analyze("x", c).Categorize(); got != TypeI {
		t.Errorf("category = %v, want TypeI", got)
	}
	// Type II: significant CS, ratio <= 1.
	c = core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 50, 0, false, "main")
	feed(c, 0, 50, rtm.InCS, true, "main")
	feedAbort(c, 0, htm.Conflict, 10, "main")
	feedCommit(c, 0, 5, "main")
	if got := Analyze("x", c).Categorize(); got != TypeII {
		t.Errorf("category = %v, want TypeII", got)
	}
	// Type III: ratio > 1.
	c = core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 50, 0, false, "main")
	feed(c, 0, 50, rtm.InCS, true, "main")
	for i := 0; i < 5; i++ {
		feedAbort(c, 0, htm.Conflict, 10, "main")
	}
	feedCommit(c, 0, 2, "main")
	if got := Analyze("x", c).Categorize(); got != TypeIII {
		t.Errorf("category = %v, want TypeIII", got)
	}
}

func TestMergeAcrossThreads(t *testing.T) {
	c := core.NewCollector(2, periods(100, 1, 1))
	feed(c, 0, 5, rtm.InCS, true, "main", "f")
	feed(c, 1, 7, rtm.InCS, true, "main", "f")
	feed(c, 1, 3, rtm.InCS, true, "main", "g")
	r := Analyze("x", c)
	var fT, gT uint64
	r.Merged.Walk(func(n *core.Node, _ int) {
		switch n.Frame.Fn {
		case "f":
			fT += n.Data.T()
		case "g":
			gT += n.Data.T()
		}
	})
	if fT != 12 || gT != 3 {
		t.Errorf("merged f=%d g=%d, want 12,3", fT, gT)
	}
	if r.Totals.T() != 15 {
		t.Errorf("totals T = %d, want 15", r.Totals.T())
	}
}

func TestAnalyzeDoesNotMutateCollector(t *testing.T) {
	c := core.NewCollector(2, periods(100, 1, 1))
	feed(c, 0, 5, rtm.InCS, true, "main", "f")
	feed(c, 1, 7, rtm.InCS, true, "main", "f")
	Analyze("x", c)
	Analyze("x", c)
	r := Analyze("x", c)
	if r.Totals.T() != 12 {
		t.Errorf("repeated analysis changed totals: T = %d, want 12", r.Totals.T())
	}
	// Thread 0's own tree must still hold only its own samples.
	var fT uint64
	c.Profiles()[0].Tree.Walk(func(n *core.Node, _ int) {
		if n.Frame.Fn == "f" {
			fT += n.Data.T()
		}
	})
	if fT != 5 {
		t.Errorf("collector tree mutated: thread 0 f.T = %d, want 5", fT)
	}
}

func TestTopAbortWeightOrdering(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feedAbort(c, 0, htm.Conflict, 10, "main", "cold")
	feedAbort(c, 0, htm.Capacity, 500, "main", "hot")
	feedAbort(c, 0, htm.Conflict, 90, "main", "warm")
	r := Analyze("x", c)
	top := r.TopAbortWeight(2)
	if len(top) != 2 {
		t.Fatalf("top = %d entries", len(top))
	}
	if got := top[0].Frames[len(top[0].Frames)-1].Fn; got != "hot" {
		t.Errorf("top[0] = %q, want hot", got)
	}
	if got := top[1].Frames[len(top[1].Frames)-1].Fn; got != "warm" {
		t.Errorf("top[1] = %q, want warm", got)
	}
}

func TestImbalance(t *testing.T) {
	c := core.NewCollector(4, periods(100, 1, 1))
	feedCommit(c, 0, 10, "main")
	feedCommit(c, 1, 10, "main")
	feedCommit(c, 2, 10, "main")
	feedCommit(c, 3, 10, "main")
	if got := Analyze("x", c).Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %v, want 1", got)
	}
	c = core.NewCollector(2, periods(100, 1, 1))
	feedCommit(c, 0, 30, "main")
	feedCommit(c, 1, 10, "main")
	if got := Analyze("x", c).Imbalance(); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
}

func TestRenderSmoke(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 50, 0, false, "main")
	feed(c, 0, 50, rtm.InCS, true, "main", "tm_begin", "hot")
	feedAbort(c, 0, htm.Conflict, 77, "main", "tm_begin", "hot")
	feedCommit(c, 0, 3, "main", "tm_begin")
	var b strings.Builder
	Analyze("demo", c).Render(&b)
	out := b.String()
	for _, want := range []string{"demo", "r_cs", "conflict", "hottest"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestNoCommitsNoAborts(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 10, 0, false, "main")
	r := Analyze("x", c)
	if got := r.AbortCommitRatio(); got != 0 {
		t.Errorf("ratio = %v, want 0", got)
	}
	if got := r.MeanAbortWeight(); got != 0 {
		t.Errorf("mean weight = %v, want 0", got)
	}
	if got := r.Categorize(); got != TypeI {
		t.Errorf("category = %v", got)
	}
}

func TestAbortsWithoutCommitsIsInfinite(t *testing.T) {
	c := core.NewCollector(1, periods(100, 1, 1))
	feed(c, 0, 10, rtm.InCS, true, "main")
	feedAbort(c, 0, htm.Conflict, 5, "main")
	r := Analyze("x", c)
	if got := r.AbortCommitRatio(); got < 1e17 {
		t.Errorf("ratio = %v, want effectively infinite", got)
	}
}

// TestParallelReductionManyThreads: folding an odd, large profile
// count into one tree, the reduction the paper parallelizes, preserves
// totals.
func TestParallelReductionManyThreads(t *testing.T) {
	const n = 13
	c := core.NewCollector(n, periods(100, 1, 1))
	for tid := 0; tid < n; tid++ {
		feed(c, tid, tid+1, rtm.InCS, true, "main", "f")
	}
	r := Analyze("wide", c)
	want := uint64(n * (n + 1) / 2)
	if r.Totals.T() != want {
		t.Fatalf("totals T = %d, want %d", r.Totals.T(), want)
	}
	var fT uint64
	r.Merged.Walk(func(node *core.Node, _ int) {
		if node.Frame.Fn == "f" {
			fT += node.Data.T()
		}
	})
	if fT != want {
		t.Fatalf("merged f.T = %d, want %d", fT, want)
	}
}

func TestWastedWorkShare(t *testing.T) {
	c := core.NewCollector(1, periods(100, 10, 10))
	feed(c, 0, 50, rtm.InCS, true, "main") // ~5000 cycles of work
	feedAbort(c, 0, htm.Conflict, 100, "main")
	// 1 abort sample at period 10 = ~10 aborts of weight 100 = 1000
	// wasted cycles over 5000 total.
	r := Analyze("x", c)
	if got := r.WastedWorkShare(); got != 0.2 {
		t.Fatalf("wasted work = %v, want 0.2", got)
	}
}

func TestImbalancedContexts(t *testing.T) {
	c := core.NewCollector(4, periods(100, 1, 1))
	// Thread 0 hogs the hot context; others barely touch it.
	feed(c, 0, 40, rtm.InCS, true, "main", "hot")
	feed(c, 1, 2, rtm.InCS, true, "main", "hot")
	feed(c, 2, 2, rtm.InCS, true, "main", "hot")
	feed(c, 3, 2, rtm.InCS, true, "main", "hot")
	r := Analyze("x", c)
	skewed := r.ImbalancedContexts(5, 2.0)
	if len(skewed) == 0 {
		t.Fatal("skewed context not reported")
	}
	if skewed[0].Skew < 3 {
		t.Fatalf("skew = %.2f, want >= 3", skewed[0].Skew)
	}
	// Balanced load: nothing reported.
	c2 := core.NewCollector(4, periods(100, 1, 1))
	for tid := 0; tid < 4; tid++ {
		feed(c2, tid, 10, rtm.InCS, true, "main", "hot")
	}
	if got := Analyze("x", c2).ImbalancedContexts(5, 2.0); len(got) != 0 {
		t.Fatalf("balanced run reported %d skewed contexts", len(got))
	}
}

func TestImbalancedContextsLoadedProfileNil(t *testing.T) {
	r := &Report{Program: "loaded"}
	if got := r.ImbalancedContexts(5, 2.0); got != nil {
		t.Fatal("loaded profile should return nil")
	}
}

func TestDiffFindsMovers(t *testing.T) {
	before := core.NewCollector(1, periods(100, 1, 1))
	feed(before, 0, 40, rtm.InCS, true, "main", "hot")
	feed(before, 0, 5, rtm.InCS, true, "main", "steady")
	feedAbort(before, 0, htm.Conflict, 500, "main", "hot")
	after := core.NewCollector(1, periods(100, 1, 1))
	feed(after, 0, 4, rtm.InCS, true, "main", "hot") // optimized away
	feed(after, 0, 5, rtm.InCS, true, "main", "steady")
	rb, ra := Analyze("before", before), Analyze("after", after)
	deltas := Diff(rb, ra, 3)
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	top := deltas[0]
	if top.Frames[len(top.Frames)-1].Fn != "hot" {
		t.Fatalf("top mover = %s, want the hot context", top.Path())
	}
	if top.TBefore <= top.TAfter {
		t.Fatalf("hot context did not shrink: %d -> %d", top.TBefore, top.TAfter)
	}
	var b strings.Builder
	RenderDiff(&b, rb, ra, 3)
	out := b.String()
	for _, want := range []string{"profile diff", "r_cs", "top moving", "hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffContextOnlyInOneProfile(t *testing.T) {
	before := core.NewCollector(1, periods(100, 1, 1))
	feed(before, 0, 10, rtm.InCS, true, "main", "removed")
	after := core.NewCollector(1, periods(100, 1, 1))
	feed(after, 0, 10, rtm.InCS, true, "main", "added")
	deltas := Diff(Analyze("b", before), Analyze("a", after), 10)
	var sawRemoved, sawAdded bool
	for _, d := range deltas {
		leaf := d.Frames[len(d.Frames)-1].Fn
		if leaf == "removed" && d.TAfter == 0 {
			sawRemoved = true
		}
		if leaf == "added" && d.TBefore == 0 {
			sawAdded = true
		}
	}
	if !sawRemoved || !sawAdded {
		t.Fatalf("one-sided contexts missing: removed=%v added=%v", sawRemoved, sawAdded)
	}
}

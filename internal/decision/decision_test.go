package decision

import (
	"strings"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
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

func cycles(c *core.Collector, n int, state uint32, inTx bool) {
	for i := 0; i < n; i++ {
		s := &machine.Sample{Event: pmu.Cycles, State: state, Stack: stack("main"), IP: lbr.IP{Fn: "main"}}
		if inTx {
			s.LBR = []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}}
		}
		c.HandleSample(s)
	}
}

func aborts(c *core.Collector, n int, cause htm.Cause, w uint64) {
	for i := 0; i < n; i++ {
		c.HandleSample(&machine.Sample{
			Event: pmu.TxAbort, Stack: stack("main"), IP: lbr.IP{Fn: "main"},
			LBR:   []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}},
			Abort: &machine.AbortInfo{Cause: cause, Weight: w},
		})
	}
}

func commits(c *core.Collector, n int) {
	for i := 0; i < n; i++ {
		c.HandleSample(&machine.Sample{Event: pmu.TxCommit, Stack: stack("main"), IP: lbr.IP{Fn: "main"}})
	}
}

// stores feeds alternating-thread store samples at addr+tid*8: with
// distinct words on one line this manufactures false sharing.
func stores(c *core.Collector, n int, base uint64, spreadWords bool) {
	for i := 0; i < n; i++ {
		tid := i % 2
		a := base
		if spreadWords {
			a += uint64(tid) * 8
		}
		c.HandleSample(&machine.Sample{
			Event: pmu.Stores, TID: tid, HasAddr: true, IsWrite: true,
			Addr: mem.Addr(a), Time: uint64(i * 10),
			Stack: stack("main"), IP: lbr.IP{Fn: "main"},
		})
	}
}

func uniform() pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles], p[pmu.TxAbort], p[pmu.TxCommit], p[pmu.Loads], p[pmu.Stores] = 100, 1, 1, 10, 10
	return p
}

func evaluate(c *core.Collector) *Advice {
	return Evaluate(analyzer.Analyze("test", c), Thresholds{})
}

func hasSuggestion(a *Advice, substr string) bool {
	for _, s := range a.Suggestions {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

func hasStep(a *Advice, id int, node string) bool {
	for _, s := range a.Steps {
		if s.ID == id && strings.Contains(s.Node, node) {
			return true
		}
	}
	return false
}

func TestTypeIStopsEarly(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 95, 0, false)
	cycles(c, 5, rtm.InCS, true)
	a := evaluate(c)
	if !hasSuggestion(a, "No HTM-related") {
		t.Fatalf("advice = %s", a)
	}
	if len(a.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 (stop at time analysis)", len(a.Steps))
	}
}

func TestTxDominantNoAction(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 40, 0, false)
	cycles(c, 55, rtm.InCS, true) // Ttx
	cycles(c, 5, rtm.InCS|rtm.InOverhead, false)
	commits(c, 50)
	a := evaluate(c)
	if !hasSuggestion(a, "no HTM-specific optimization") {
		t.Fatalf("advice = %s", a)
	}
}

func TestHighOverheadSuggestsMerging(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 30, 0, false)
	cycles(c, 40, rtm.InCS, true)
	cycles(c, 30, rtm.InCS|rtm.InOverhead, false) // large Toh
	commits(c, 50)
	a := evaluate(c)
	if !hasSuggestion(a, "Merge multiple small transactions") {
		t.Fatalf("advice = %s", a)
	}
}

func TestHighWaitWithTrueSharing(t *testing.T) {
	c := core.NewCollector(2, uniform())
	cycles(c, 20, 0, false)
	cycles(c, 30, rtm.InCS|rtm.InLockWaiting, false)
	cycles(c, 30, rtm.InCS|rtm.InFallback, false)
	cycles(c, 20, rtm.InCS, true)
	aborts(c, 30, htm.Conflict, 200)
	commits(c, 10)
	a := evaluate(c)
	if !hasStep(a, 2, "high lock waiting") {
		t.Fatalf("missing lock-waiting step: %s", a)
	}
	if !hasSuggestion(a, "Elide read locks") {
		t.Fatalf("advice = %s", a)
	}
	if !hasStep(a, 5, "shared data contention") {
		t.Fatalf("missing contention step: %s", a)
	}
	if !hasSuggestion(a, "Shrink transactions") {
		t.Fatalf("advice = %s", a)
	}
}

func TestCapacityDominant(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 20, 0, false)
	cycles(c, 50, rtm.InCS|rtm.InFallback, false)
	cycles(c, 30, rtm.InCS, true)
	aborts(c, 20, htm.Capacity, 400)
	commits(c, 10)
	a := evaluate(c)
	if !hasStep(a, 5, "footprint large") {
		t.Fatalf("missing footprint step: %s", a)
	}
	if !hasSuggestion(a, "fits the L1 capacity") {
		t.Fatalf("advice = %s", a)
	}
}

func TestSyncDominantStepSix(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 20, 0, false)
	cycles(c, 60, rtm.InCS|rtm.InFallback, false)
	cycles(c, 20, rtm.InCS, true)
	aborts(c, 20, htm.Sync, 300)
	commits(c, 30)
	a := evaluate(c)
	if !hasStep(a, 6, "unfriendly instructions") {
		t.Fatalf("missing step 6: %s", a)
	}
	if !hasSuggestion(a, "Move unfriendly instructions") {
		t.Fatalf("advice = %s", a)
	}
}

func TestMixedCausesAllReported(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 10, 0, false)
	cycles(c, 60, rtm.InCS|rtm.InFallback, false)
	cycles(c, 30, rtm.InCS, true)
	aborts(c, 10, htm.Conflict, 300)
	aborts(c, 10, htm.Capacity, 300)
	aborts(c, 10, htm.Sync, 300)
	commits(c, 5)
	a := evaluate(c)
	if !hasStep(a, 5, "shared data contention") || !hasStep(a, 5, "footprint large") || !hasStep(a, 6, "unfriendly") {
		t.Fatalf("missing steps: %s", a)
	}
}

func TestFalseSharingBranch(t *testing.T) {
	c := core.NewCollector(2, uniform())
	cycles(c, 10, 0, false)
	cycles(c, 50, rtm.InCS|rtm.InLockWaiting, false)
	cycles(c, 40, rtm.InCS, true)
	aborts(c, 30, htm.Conflict, 200)
	commits(c, 10)
	stores(c, 40, 0x9000, true) // different words, same line
	a := evaluate(c)
	if !hasStep(a, 5, "false sharing") {
		t.Fatalf("missing false-sharing step: %s", a)
	}
	if !hasSuggestion(a, "different cache lines") {
		t.Fatalf("advice = %s", a)
	}
}

func TestThresholdDefaults(t *testing.T) {
	th := Thresholds{}.withDefaults()
	if th.MinRcs != 0.2 || th.HighRatio != 1.0 || th.LargeShare != 0.3 {
		t.Fatalf("defaults = %+v", th)
	}
	// Explicit values survive.
	th = Thresholds{MinRcs: 0.5}.withDefaults()
	if th.MinRcs != 0.5 {
		t.Fatalf("explicit MinRcs overwritten: %v", th.MinRcs)
	}
}

func TestRenderContainsWalk(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 95, 0, false)
	cycles(c, 5, rtm.InCS, true)
	out := evaluate(c).String()
	if !strings.Contains(out, "decision tree walk") || !strings.Contains(out, "(1)") {
		t.Fatalf("render = %s", out)
	}
}

// TestPerContextRefinement: a context concentrating the capacity
// weight or dominated by sync aborts is flagged even when conflicts
// dominate the global mix (the §8.1 iterative investigation).
func TestPerContextRefinement(t *testing.T) {
	c := core.NewCollector(1, uniform())
	cycles(c, 20, 0, false)
	cycles(c, 50, rtm.InCS|rtm.InFallback, false)
	cycles(c, 30, rtm.InCS, true)
	commits(c, 10)
	// Conflicts dominate globally...
	for i := 0; i < 30; i++ {
		c.HandleSample(&machine.Sample{
			Event: pmu.TxAbort, Stack: stack("main", "contended"), IP: lbr.IP{Fn: "contended"},
			LBR:   []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}},
			Abort: &machine.AbortInfo{Cause: htm.Conflict, Weight: 300},
		})
	}
	// ...but one context holds all the capacity weight...
	c.HandleSample(&machine.Sample{
		Event: pmu.TxAbort, Stack: stack("main", "bigfootprint"), IP: lbr.IP{Fn: "bigfootprint"},
		LBR:   []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}},
		Abort: &machine.AbortInfo{Cause: htm.Capacity, CapKind: htm.CapacityRead, Weight: 900},
	})
	// ...and another is pure sync aborts.
	for i := 0; i < 3; i++ {
		c.HandleSample(&machine.Sample{
			Event: pmu.TxAbort, Stack: stack("main", "write_file"), IP: lbr.IP{Fn: "write_file"},
			LBR:   []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}},
			Abort: &machine.AbortInfo{Cause: htm.Sync, Weight: 400},
		})
	}
	a := evaluate(c)
	if !hasSuggestion(a, "bigfootprint") {
		t.Errorf("capacity-concentrating context not flagged:\n%s", a)
	}
	if !hasSuggestion(a, "write_file") {
		t.Errorf("sync-dominated context not flagged:\n%s", a)
	}
}

func TestImbalanceBranch(t *testing.T) {
	c := core.NewCollector(4, uniform())
	cycles(c, 10, 0, false)
	cycles(c, 60, rtm.InCS|rtm.InFallback, false)
	cycles(c, 30, rtm.InCS, true)
	aborts(c, 20, htm.Conflict, 100)
	// Thread 0 commits everything; the others starve.
	for i := 0; i < 30; i++ {
		c.HandleSample(&machine.Sample{Event: pmu.TxCommit, TID: 0, Stack: stack("main"), IP: lbr.IP{Fn: "main"}})
	}
	c.HandleSample(&machine.Sample{Event: pmu.TxCommit, TID: 1, Stack: stack("main"), IP: lbr.IP{Fn: "main"}})
	a := evaluate(c)
	if !hasStep(a, 5, "thread imbalance") {
		t.Fatalf("imbalance step missing:\n%s", a)
	}
	if !hasSuggestion(a, "Redistribute the work") {
		t.Fatalf("redistribute suggestion missing:\n%s", a)
	}
}

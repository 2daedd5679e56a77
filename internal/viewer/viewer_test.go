package viewer

import (
	"strings"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/decision"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

func report(t *testing.T) *analyzer.Report {
	t.Helper()
	c := core.NewCollector(2, pmu.DefaultPeriods())
	mk := func(tid int, ev pmu.Event, inTx bool, fns ...string) *machine.Sample {
		stack := make([]lbr.IP, len(fns))
		for i, f := range fns {
			stack[i] = lbr.IP{Fn: f}
		}
		s := &machine.Sample{Event: ev, TID: tid, State: rtm.InCS, Stack: stack, IP: stack[len(stack)-1]}
		if inTx {
			s.LBR = []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}}
		}
		return s
	}
	for i := 0; i < 50; i++ {
		c.HandleSample(mk(0, pmu.Cycles, true, "main", "hashtable_search"))
	}
	for i := 0; i < 5; i++ {
		c.HandleSample(mk(1, pmu.Cycles, true, "main", "minor"))
	}
	s := mk(0, pmu.TxAbort, true, "main", "hashtable_search")
	s.Abort = &machine.AbortInfo{Cause: htm.Capacity, CapKind: htm.CapacityRead, Weight: 500}
	c.HandleSample(s)
	for i := 0; i < 8; i++ {
		c.HandleSample(mk(0, pmu.TxCommit, false, "main"))
	}
	c.HandleSample(mk(1, pmu.TxCommit, false, "main"))
	return analyzer.Analyze("view/test", c)
}

func TestTreeShowsHotContextWithShares(t *testing.T) {
	var b strings.Builder
	Tree(&b, report(t))
	out := b.String()
	if !strings.Contains(out, "hashtable_search") {
		t.Fatalf("hot context missing:\n%s", out)
	}
	if !strings.Contains(out, "begin_in_tx") {
		t.Fatalf("pseudo node missing:\n%s", out)
	}
	if !strings.Contains(out, "abort weight") || !strings.Contains(out, "capacity abort") {
		t.Fatalf("metric columns missing:\n%s", out)
	}
	// The root row accounts for 100% of CS time.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "<thread root>") && !strings.Contains(line, "100.0%") {
			t.Fatalf("root row lacks 100%% share: %q", line)
		}
	}
}

// TestTreeMinShareHidesNoise: the tree hides a context holding less
// than 1% of both critical-section time and abort weight, and shows
// one at exactly 1%.
func TestTreeMinShareHidesNoise(t *testing.T) {
	c := core.NewCollector(1, pmu.DefaultPeriods())
	for fn, n := range map[string]int{"hot": 197, "edge": 2, "noise": 1} {
		for i := 0; i < n; i++ {
			stack := []lbr.IP{{Fn: "main"}, {Fn: fn}}
			c.HandleSample(&machine.Sample{Event: pmu.Cycles, State: rtm.InCS, Stack: stack, IP: stack[1]})
		}
	}
	var b strings.Builder
	Tree(&b, analyzer.Analyze("view/noise", c))
	out := b.String()
	if !strings.Contains(out, "edge") || !strings.Contains(out, "1.0%") {
		t.Fatalf("context at exactly 1%% hidden:\n%s", out)
	}
	if strings.Contains(out, "noise") {
		t.Fatalf("context at 0.5%% shown:\n%s", out)
	}
}

func TestHistogramShowsImbalance(t *testing.T) {
	var b strings.Builder
	Histogram(&b, report(t))
	out := b.String()
	if !strings.Contains(out, "t00") || !strings.Contains(out, "t01") {
		t.Fatalf("missing thread rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars drawn:\n%s", out)
	}
	if !strings.Contains(out, "imbalance") {
		t.Fatalf("imbalance header missing:\n%s", out)
	}
}

func TestHistogramEmptyReport(t *testing.T) {
	r := &analyzer.Report{Program: "empty"}
	var b strings.Builder
	Histogram(&b, r) // must not panic or divide by zero
	if !strings.Contains(b.String(), "per-thread") {
		t.Fatal("no output for empty report")
	}
}

func TestContextHistogram(t *testing.T) {
	r := report(t)
	var b strings.Builder
	path := []lbr.IP{{Fn: "thread_root"}}
	ContextHistogram(&b, r, path, "T", (*core.Metrics).T)
	out := b.String()
	if !strings.Contains(out, "T of thread_root across threads") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "t00") || !strings.Contains(out, "t01") {
		t.Fatalf("thread rows missing:\n%s", out)
	}
}

func TestContextHistogramUnknownPath(t *testing.T) {
	r := report(t)
	var b strings.Builder
	ContextHistogram(&b, r, []lbr.IP{{Fn: "nope"}}, "T", (*core.Metrics).T)
	if !strings.Contains(b.String(), "t00 0") {
		t.Fatalf("unknown path should plot zeros:\n%s", b.String())
	}
}

func TestContextHistogramLoadedProfile(t *testing.T) {
	r := &analyzer.Report{Program: "loaded"} // no Profiles
	var b strings.Builder
	ContextHistogram(&b, r, nil, "T", (*core.Metrics).T)
	if !strings.Contains(b.String(), "unavailable") {
		t.Fatal("missing unavailable notice")
	}
}

func TestHTMLReport(t *testing.T) {
	r := report(t)
	adv := decision.Evaluate(r, decision.Thresholds{})
	var b strings.Builder
	if err := HTML(&b, r, adv); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "view/test", "hashtable_search",
		"Decision tree walk", "Per-thread", "abort weight",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestHTMLNilAdvice(t *testing.T) {
	var b strings.Builder
	if err := HTML(&b, report(t), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Calling context view") {
		t.Fatal("tree section missing")
	}
}

func TestHTMLEscapesUntrustedNames(t *testing.T) {
	c := core.NewCollector(1, pmu.DefaultPeriods())
	c.HandleSample(&machine.Sample{
		Event: pmu.Cycles, State: rtm.InCS,
		Stack: []lbr.IP{{Fn: "<script>alert(1)</script>"}},
		IP:    lbr.IP{Fn: "<script>alert(1)</script>"},
	})
	r := analyzer.Analyze("<b>evil</b>", c)
	var b strings.Builder
	if err := HTML(&b, r, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "<script>") {
		t.Fatal("unescaped script tag in HTML output")
	}
	if strings.Contains(out, "<b>evil</b>") {
		t.Fatal("unescaped program name")
	}
}

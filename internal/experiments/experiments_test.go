package experiments

import (
	"io"
	"strings"
	"testing"

	"txsampler/internal/rtm"
)

// Tests run the experiments at reduced thread counts to keep runtime
// modest; the full-scale numbers come from cmd/experiments and the
// root benchmark suite.

func TestTable1Prints(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	for _, want := range []string{"Adjacent", "FirstParts", "Random"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7(io.Discard, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := map[string]ClompRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Small transactions carry more begin/end overhead than large
	// ones on the conflict-free input.
	small := byName["clomp/small-1"].Share[rtm.ModeOverhead]
	large := byName["clomp/large-1"].Share[rtm.ModeOverhead]
	if small <= large {
		t.Errorf("small-1 Toh=%.2f should exceed large-1 Toh=%.2f", small, large)
	}
	// The high-conflict input serializes large transactions: its lock
	// waiting dominates every other configuration's.
	l2 := byName["clomp/large-2"].Share[rtm.ModeWaiting]
	for _, r := range rows {
		if wait := r.Share[rtm.ModeWaiting]; r.Name != "clomp/large-2" && wait > l2 {
			t.Errorf("%s Twait=%.2f exceeds large-2's %.2f", r.Name, wait, l2)
		}
	}
	// Input 2 shows conflict aborts; input 1 shows none.
	if byName["clomp/large-2"].Conflicts == 0 {
		t.Error("large-2 has no conflict aborts")
	}
	if byName["clomp/large-1"].Conflicts+byName["clomp/large-1"].Capacity != 0 {
		t.Error("large-1 should be abort-free")
	}
	// Input 3 is where capacity aborts appear.
	if byName["clomp/large-3"].Capacity == 0 {
		t.Error("large-3 has no capacity aborts")
	}
	if byName["clomp/large-2"].Capacity != 0 {
		t.Error("large-2 should have no capacity aborts")
	}
}

func TestFig8SplashIsTypeI(t *testing.T) {
	rows, err := Fig8(io.Discard, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Name, "splash2/") && r.Category != 1 {
			t.Errorf("%s categorized %v, want Type I", r.Name, r.Category)
		}
	}
	if len(rows) < 25 {
		t.Fatalf("only %d programs categorized", len(rows))
	}
}

func TestTable2PairsResolve(t *testing.T) {
	for _, p := range Table2Pairs() {
		if p.Base == "" || p.Opt == "" || p.Paper <= 0 {
			t.Errorf("bad pair: %+v", p)
		}
	}
	if len(Table2Pairs()) != 10 {
		t.Fatalf("Table 2 has %d rows, want 10", len(Table2Pairs()))
	}
}

func TestTable2RobustWins(t *testing.T) {
	rows, err := Table2(io.Discard, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: nonpositive speedup %.2f", r.Code, r.Speedup)
		}
		if r.Speedup > 1 {
			wins++
		}
	}
	if wins < 8 {
		t.Errorf("only %d/%d optimizations win at 8 threads", wins, len(rows))
	}
}

func TestCaseStudyDedupFindsHashtableSearch(t *testing.T) {
	report, advice, err := CaseStudy(io.Discard, "parsec/dedup", 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range report.TopAbortWeight(5) {
		if strings.Contains(h.Path(), "hashtable_search") {
			found = true
		}
	}
	if !found {
		t.Error("dedup's abort weight not attributed to hashtable_search (Figure 9)")
	}
	if len(advice.Suggestions) == 0 {
		t.Error("no advice for dedup")
	}
}

func TestMemOverheadUnderPaperBound(t *testing.T) {
	maxPer, err := MemOverhead(io.Discard, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if maxPer > 5<<20 {
		t.Fatalf("collector uses %d bytes/thread, paper bound is 5MB", maxPer)
	}
}

func TestAccuracyComparisonRendering(t *testing.T) {
	var b strings.Builder
	if err := AccuracyComparison(&b, 6, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "txsampler=") || !strings.Contains(out, "stack-only=") {
		t.Fatalf("missing columns:\n%s", out)
	}
}

func TestTSXProfComparisonRendering(t *testing.T) {
	var b strings.Builder
	if err := TSXProfComparison(&b, 6, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "replay=") || !strings.Contains(out, "trace=") {
		t.Fatalf("missing columns:\n%s", out)
	}
}

// TestParallelOutputIdentical shards the same experiment across 1 and
// 8 workers and requires byte-identical output: every run is a pure
// function of its options and results print in input order.
func TestParallelOutputIdentical(t *testing.T) {
	defer func(old int) { Parallel = old }(Parallel)

	run := func(workers int) string {
		Parallel = workers
		var b strings.Builder
		if _, err := MemOverhead(&b, 4, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig7(&b, 4, 1); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	seq := run(1)
	par := run(8)
	if seq != par {
		t.Fatalf("output differs between -parallel 1 and 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

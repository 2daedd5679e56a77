package cct

import (
	"reflect"
	"testing"
	"testing/quick"

	"txsampler/internal/lbr"
)

type metric struct{ n int }

func fn(name string) lbr.IP { return lbr.IP{Fn: name} }

func TestPathCreatesAndReuses(t *testing.T) {
	tr := NewTree[metric]()
	a := tr.Path([]lbr.IP{fn("main"), fn("f")})
	b := tr.Path([]lbr.IP{fn("main"), fn("f")})
	if a != b {
		t.Fatal("same path produced different nodes")
	}
	c := tr.Path([]lbr.IP{fn("main"), fn("g")})
	if c == a {
		t.Fatal("different paths shared a node")
	}
	if tr.Size() != 4 { // root, main, f, g
		t.Fatalf("Size = %d, want 4", tr.Size())
	}
}

func TestFramesRoundTrip(t *testing.T) {
	tr := NewTree[metric]()
	frames := []lbr.IP{fn("main"), {Fn: "f", Site: "12"}, fn("g")}
	n := tr.Path(frames)
	if got := n.Frames(); !reflect.DeepEqual(got, frames) {
		t.Fatalf("Frames() = %v, want %v", got, frames)
	}
}

func TestChildrenSorted(t *testing.T) {
	tr := NewTree[metric]()
	tr.Path([]lbr.IP{fn("zeta")})
	tr.Path([]lbr.IP{fn("alpha")})
	tr.Path([]lbr.IP{{Fn: "alpha", Site: "9"}})
	kids := tr.Root.Children()
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3", len(kids))
	}
	if kids[0].Frame.Fn != "alpha" || kids[0].Frame.Site != "" || kids[1].Frame.Site != "9" || kids[2].Frame.Fn != "zeta" {
		t.Fatalf("order wrong: %v %v %v", kids[0].Frame, kids[1].Frame, kids[2].Frame)
	}
}

func TestMergeCombines(t *testing.T) {
	a := NewTree[metric]()
	a.Path([]lbr.IP{fn("main"), fn("f")}).Data.n = 3
	a.Path([]lbr.IP{fn("main")}).Data.n = 1
	b := NewTree[metric]()
	b.Path([]lbr.IP{fn("main"), fn("f")}).Data.n = 4
	b.Path([]lbr.IP{fn("main"), fn("g")}).Data.n = 5
	a.Merge(b, func(dst, src *metric) { dst.n += src.n })
	if got := a.Path([]lbr.IP{fn("main"), fn("f")}).Data.n; got != 7 {
		t.Errorf("f = %d, want 7", got)
	}
	if got := a.Path([]lbr.IP{fn("main"), fn("g")}).Data.n; got != 5 {
		t.Errorf("g = %d, want 5", got)
	}
	if got := a.Path([]lbr.IP{fn("main")}).Data.n; got != 1 {
		t.Errorf("main = %d, want 1", got)
	}
}

func TestWalkPreorderDeterministic(t *testing.T) {
	tr := NewTree[metric]()
	tr.Path([]lbr.IP{fn("b"), fn("x")})
	tr.Path([]lbr.IP{fn("a")})
	var order []string
	tr.Walk(func(n *Node[metric], d int) { order = append(order, n.Frame.Fn) })
	want := []string{"<root>", "a", "b", "x"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("walk order = %v, want %v", order, want)
	}
}

// --- InTxPath: the Figure 3 reconstruction ---

func call(from, to string, inTx bool) lbr.Entry {
	return lbr.Entry{Kind: lbr.KindCall, From: lbr.IP{Fn: from}, To: lbr.IP{Fn: to}, InTSX: inTx}
}
func ret(from, to string, inTx bool) lbr.Entry {
	return lbr.Entry{Kind: lbr.KindReturn, From: lbr.IP{Fn: from}, To: lbr.IP{Fn: to}, InTSX: inTx}
}
func abortEntry() lbr.Entry {
	return lbr.Entry{Kind: lbr.KindAbort, Abort: true, InTSX: true}
}

// TestPaperFigure3 reproduces the paper's example: inside a
// transaction, A calls B, B calls D (returns), D returns, A calls C,
// C calls D, and the sample lands in D. The LBR (most recent first)
// is: interrupt/abort, call D, call C, B return, D return, call D,
// call B, call A(not in tx).
func TestPaperFigure3(t *testing.T) {
	snapshot := []lbr.Entry{
		abortEntry(),             // 0: triggering interrupt
		call("C", "D", true),     // 1
		call("A", "C", true),     // 2
		ret("B", "A", true),      // 3
		ret("D", "B", true),      // 4
		call("B", "D", true),     // 5
		call("A", "B", true),     // 6
		call("main", "A", false), // 7: before the transaction
	}
	path, truncated := InTxPath(snapshot)
	want := []lbr.IP{fn("C"), fn("D")}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if truncated {
		t.Fatal("window reached the non-TSX boundary: must not report truncation")
	}
	full := append([]lbr.IP{fn("main"), fn("A")}, path...)
	wantFull := []lbr.IP{fn("main"), fn("A"), fn("C"), fn("D")}
	if !reflect.DeepEqual(full, wantFull) {
		t.Fatalf("full context = %v, want %v", full, wantFull)
	}
}

func TestInTxPathTruncatedByWindow(t *testing.T) {
	// Entire buffer is in-TSX entries: the oldest call may be lost.
	snapshot := []lbr.Entry{
		abortEntry(),
		call("Y", "Z", true),
		call("X", "Y", true),
	}
	path, truncated := InTxPath(snapshot)
	if !truncated {
		t.Fatal("full in-TSX buffer must report truncation")
	}
	want := []lbr.IP{fn("Y"), fn("Z")}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestInTxPathUnmatchedReturn(t *testing.T) {
	// A return whose call scrolled out of the window.
	snapshot := []lbr.Entry{
		abortEntry(),
		call("A", "E", true),
		ret("Q", "A", true),
		call("main", "A", false),
	}
	path, truncated := InTxPath(snapshot)
	if !truncated {
		t.Fatal("unmatched return must report truncation")
	}
	if !reflect.DeepEqual(path, []lbr.IP{fn("E")}) {
		t.Fatalf("path = %v", path)
	}
}

func TestInTxPathStopsAtPriorAbort(t *testing.T) {
	// Entries from a previous aborted transaction must not leak into
	// the current reconstruction.
	snapshot := []lbr.Entry{
		abortEntry(),           // current sample
		call("A", "B", true),   // current tx
		abortEntry(),           // previous tx's abort branch
		call("A", "OLD", true), // previous tx
	}
	path, _ := InTxPath(snapshot)
	if !reflect.DeepEqual(path, []lbr.IP{fn("B")}) {
		t.Fatalf("path = %v, want [B]", path)
	}
}

func TestInTxPathBalancedCallsLeaveEmptyPath(t *testing.T) {
	// Sample at transaction top level after a call that returned.
	snapshot := []lbr.Entry{
		abortEntry(),
		ret("F", "A", true),
		call("A", "F", true),
		call("main", "A", false),
	}
	path, truncated := InTxPath(snapshot)
	if len(path) != 0 || truncated {
		t.Fatalf("path = %v truncated=%v, want empty/false", path, truncated)
	}
}

func TestInTxPathEmptySnapshot(t *testing.T) {
	path, truncated := InTxPath(nil)
	if path != nil || !truncated {
		t.Fatalf("nil snapshot: path=%v truncated=%v", path, truncated)
	}
}

func TestInTxPathNoTxEntries(t *testing.T) {
	snapshot := []lbr.Entry{
		{Kind: lbr.KindInterrupt},
		call("main", "A", false),
	}
	path, truncated := InTxPath(snapshot)
	if len(path) != 0 || truncated {
		t.Fatalf("non-tx snapshot: path=%v truncated=%v", path, truncated)
	}
}

// Property: replaying any randomly generated balanced call/return
// prefix inside a transaction reconstructs exactly the open frames,
// provided the window holds all entries plus the pre-tx boundary.
func TestQuickReconstructionMatchesSimulatedStack(t *testing.T) {
	f := func(script []uint8) bool {
		var entries []lbr.Entry // oldest first
		var stack []string
		next := 0
		for _, b := range script[:min(len(script), 10)] {
			if b%3 == 0 && len(stack) > 0 {
				from := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				to := "root"
				if len(stack) > 0 {
					to = stack[len(stack)-1]
				}
				entries = append(entries, ret(from, to, true))
			} else {
				from := "root"
				if len(stack) > 0 {
					from = stack[len(stack)-1]
				}
				name := string(rune('a' + next))
				next++
				entries = append(entries, call(from, name, true))
				stack = append(stack, name)
			}
		}
		// Build snapshot: most recent first, with the triggering abort
		// on top and a non-TSX boundary at the bottom.
		snapshot := []lbr.Entry{abortEntry()}
		for i := len(entries) - 1; i >= 0; i-- {
			snapshot = append(snapshot, entries[i])
		}
		snapshot = append(snapshot, call("main", "root", false))
		path, truncated := InTxPath(snapshot)
		if truncated {
			return false
		}
		if len(path) != len(stack) {
			return false
		}
		for i := range path {
			if path[i].Fn != stack[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: InTxPath never panics and returns only frames that appear
// as call targets, for arbitrary (even malformed) snapshots.
func TestQuickInTxPathRobustness(t *testing.T) {
	f := func(raw []byte) bool {
		var snapshot []lbr.Entry
		for i := 0; i+2 < len(raw); i += 3 {
			e := lbr.Entry{
				Kind:  lbr.Kind(raw[i] % 4),
				From:  lbr.IP{Fn: string(rune('a' + raw[i+1]%6))},
				To:    lbr.IP{Fn: string(rune('a' + raw[i+2]%6))},
				Abort: raw[i]%5 == 0,
				InTSX: raw[i]%3 != 0,
			}
			snapshot = append(snapshot, e)
		}
		path, _ := InTxPath(snapshot)
		targets := map[string]bool{}
		for _, e := range snapshot {
			if e.Kind == lbr.KindCall {
				targets[e.To.Fn] = true
			}
		}
		for _, f := range path {
			if !targets[f.Fn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is order-insensitive for totals — merging A into B
// and B into A yields the same per-node sums.
func TestQuickMergeCommutesOnTotals(t *testing.T) {
	build := func(seeds []uint8) *Tree[metric] {
		tr := NewTree[metric]()
		for _, s := range seeds {
			frames := []lbr.IP{fn(string(rune('a' + s%4)))}
			if s%2 == 0 {
				frames = append(frames, fn(string(rune('p'+s%3))))
			}
			tr.Path(frames).Data.n += int(s)
		}
		return tr
	}
	sum := func(tr *Tree[metric]) int {
		total := 0
		tr.Walk(func(n *Node[metric], _ int) { total += n.Data.n })
		return total
	}
	f := func(a, b []uint8) bool {
		t1, t2 := build(a), build(b)
		t3, t4 := build(b), build(a)
		t1.Merge(t2, func(d, s *metric) { d.n += s.n })
		t3.Merge(t4, func(d, s *metric) { d.n += s.n })
		return sum(t1) == sum(t3) && t1.Size() == t3.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

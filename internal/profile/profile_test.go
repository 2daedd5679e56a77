package profile

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// buildReport produces a small but non-trivial report.
func buildReport(t *testing.T) *analyzer.Report {
	t.Helper()
	c := core.NewCollector(2, pmu.DefaultPeriods())
	mk := func(tid int, ev pmu.Event, state uint32, inTx bool, fns ...string) *machine.Sample {
		stack := make([]lbr.IP, len(fns))
		for i, f := range fns {
			stack[i] = lbr.IP{Fn: f}
		}
		s := &machine.Sample{Event: ev, TID: tid, State: state, Stack: stack, IP: stack[len(stack)-1]}
		if inTx {
			s.LBR = []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}}
		}
		return s
	}
	for i := 0; i < 10; i++ {
		c.HandleSample(mk(0, pmu.Cycles, rtm.InCS, true, "main", "hot"))
		c.HandleSample(mk(1, pmu.Cycles, 0, false, "main", "cold"))
	}
	s := mk(0, pmu.TxAbort, rtm.InCS, true, "main", "hot")
	s.Abort = &machine.AbortInfo{Cause: htm.Conflict, Weight: 123, AbortedBy: 1}
	c.HandleSample(s)
	c.HandleSample(mk(1, pmu.TxCommit, rtm.InCS, false, "main", "hot"))
	return analyzer.Analyze("test/prog", c)
}

func TestRoundTrip(t *testing.T) {
	r := buildReport(t)
	db := FromReport(r)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2 := got.Report()
	if r2.Program != r.Program || r2.Threads != r.Threads {
		t.Fatalf("metadata lost: %+v", r2)
	}
	if !reflect.DeepEqual(r2.Totals, r.Totals) {
		t.Fatalf("totals differ:\n%+v\n%+v", r2.Totals, r.Totals)
	}
	if !reflect.DeepEqual(r2.PerThread, r.PerThread) {
		t.Fatalf("per-thread differ")
	}
	// Derived analyses agree.
	if r2.Rcs() != r.Rcs() || r2.AbortCommitRatio() != r.AbortCommitRatio() {
		t.Fatalf("derived metrics differ")
	}
	// Tree structure round-trips: same hot context ranking.
	top1, top2 := r.TopAbortWeight(1), r2.TopAbortWeight(1)
	if len(top1) != len(top2) || top1[0].Path() != top2[0].Path() {
		t.Fatalf("ranking differs: %v vs %v", top1, top2)
	}
}

func TestVersionRejected(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestMalformedRejected(t *testing.T) {
	if _, err := Read(strings.NewReader(`{not json`)); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	r := buildReport(t)
	path := filepath.Join(t.TempDir(), "prof.json")
	if err := FromReport(r).Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Program != "test/prog" {
		t.Fatalf("program = %q", db.Program)
	}
	if db.Root == nil || len(db.Root.Children) == 0 {
		t.Fatal("tree lost")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file load succeeded")
	}
}

// Property: any randomly shaped metric tree survives a write/read
// round trip with identical structure and payloads.
func TestQuickTreeRoundTrip(t *testing.T) {
	f := func(spec []uint16) bool {
		c := core.NewCollector(1, pmu.DefaultPeriods())
		for _, v := range spec {
			depth := int(v%3) + 1
			frames := make([]lbr.IP, depth)
			for d := 0; d < depth; d++ {
				frames[d] = lbr.IP{Fn: string(rune('a' + (v>>uint(d))%5))}
				if v%7 == 0 {
					frames[d].Site = "s"
				}
			}
			c.HandleSample(&machine.Sample{
				Event: pmu.Cycles, State: rtm.InCS,
				Stack: frames, IP: frames[len(frames)-1],
			})
		}
		r := analyzer.Analyze("quick", c)
		var buf bytes.Buffer
		if err := FromReport(r).Write(&buf); err != nil {
			return false
		}
		db, err := Read(&buf)
		if err != nil {
			return false
		}
		r2 := db.Report()
		if r2.Totals != r.Totals {
			return false
		}
		// Same node count and same per-node T sums.
		sum := func(rr *analyzer.Report) (n int, total uint64) {
			rr.Merged.Walk(func(node *core.Node, _ int) { n++; total += node.Data.T() })
			return
		}
		n1, t1 := sum(r)
		n2, t2 := sum(r2)
		return n1 == n2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

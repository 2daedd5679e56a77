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
	"txsampler/internal/faults"
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
	s.Abort = &machine.AbortInfo{Cause: htm.Conflict, Weight: 123}
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

// TestConfigHashMatchesRecorded pins ConfigHash, the key of every
// campaign journal entry and fleet upload, to recorded values for the
// zero plan, a plan setting every key, and each preset, under every
// hybrid policy: a journal written earlier must resume with its shards
// skipped.
func TestConfigHashMatchesRecorded(t *testing.T) {
	want := map[string]string{
		"none lock-only":                      "05475f6487ca33ec",
		"none stm-fallback":                   "939d9a54fa677c41",
		"none serialize-on-conflict":          "c2c3326e3b4ea58f",
		"none sandboxed":                      "1cb758751aa69376",
		"full lock-only":                      "89ea2e0bd704c151",
		"full stm-fallback":                   "fd8bf805b8d3779e",
		"full serialize-on-conflict":          "28ece975be3b133a",
		"full sandboxed":                      "e9601efa59b564ab",
		"all lock-only":                       "cb41fefc3036b3c4",
		"all stm-fallback":                    "73fa5ddf69f87a99",
		"all serialize-on-conflict":           "04266caa1bcfce07",
		"all sandboxed":                       "bdca3a84c56ff29e",
		"crash-mid-log lock-only":             "629613140910b872",
		"crash-mid-log stm-fallback":          "416cd3b037fe060b",
		"crash-mid-log serialize-on-conflict": "b20fec327c0d8231",
		"crash-mid-log sandboxed":             "41cdd5ac21f1ba10",
		"drops lock-only":                     "581bee81db2f822a",
		"drops stm-fallback":                  "7433b8205181d283",
		"drops serialize-on-conflict":         "a0cdba955527c0e9",
		"drops sandboxed":                     "2526b3c56c02a9b8",
		"elide-storm lock-only":               "8b5c741992ab29e0",
		"elide-storm stm-fallback":            "38f14d81f0f1888d",
		"elide-storm serialize-on-conflict":   "f2ad4e854e0628f3",
		"elide-storm sandboxed":               "bcc59687a9099e62",
		"lbr lock-only":                       "77562892f03e483b",
		"lbr stm-fallback":                    "4c3b2230a0cdf7c4",
		"lbr serialize-on-conflict":           "0ce83a7406056fd8",
		"lbr sandboxed":                       "1bc52951a7fa45e1",
		"sched lock-only":                     "b27d53fae0bf5a65",
		"sched stm-fallback":                  "43c46560cd3e338a",
		"sched serialize-on-conflict":         "ab5f92ab368bf18e",
		"sched sandboxed":                     "c84b120916e613a7",
		"spurious lock-only":                  "740ffabdb1d9716a",
		"spurious stm-fallback":               "92a57ba0f0e248c3",
		"spurious serialize-on-conflict":      "d8718f6d76153aa9",
		"spurious sandboxed":                  "43298b43b7b0d778",
		"storm lock-only":                     "a3a1e1d421fa662f",
		"storm stm-fallback":                  "6e286aa7677ec5d0",
		"storm serialize-on-conflict":         "c93718478263496c",
		"storm sandboxed":                     "2ee4bfb1cce1d5cd",
		"torn-flush lock-only":                "f51e3144844aa3d5",
		"torn-flush stm-fallback":             "d2b02d20f3886b7a",
		"torn-flush serialize-on-conflict":    "c2772234807b059e",
		"torn-flush sandboxed":                "db34beeb0dd3ebb7",
	}
	plans := map[string]faults.Plan{
		"none": {},
		"full": {
			SpuriousAbortRate: 1e-05, SampleDropRate: 0.2, CoalesceWindow: 400,
			LBRTruncateRate: 0.125, LBRStaleRate: 0.05, LBRClearAbortRate: 0.05,
			StallRate: 0.002, StallCycles: 4000, ClockSkewRate: 0.05, ClockSkewCycles: 1500,
			CrashWriteOffset: 4096,
			PmemCrashPoint:   faults.PmemCrashMidLog, PmemCrashTx: 3, PmemCrashEvery: 5,
			StormPeriod: 4000, StormLength: 400, StormFactor: 2.5,
		},
	}
	for name, p := range faults.Presets {
		plans[name] = p
	}
	checked := 0
	for name, p := range plans {
		for h := machine.HybridPolicy(0); h.Valid(); h++ {
			key := name + " " + h.String()
			if got := ConfigHash(p, h); got != want[key] {
				t.Errorf("ConfigHash(%s) = %s, recorded %q", key, got, want[key])
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d plan and policy pairs, %d recorded", checked, len(want))
	}
}

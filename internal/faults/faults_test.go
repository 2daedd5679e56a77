package faults

import (
	"strings"
	"testing"

	"txsampler/internal/lbr"
)

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("spurious=0.01,drop=0.2,coalesce=400,lbr-trunc=0.1,stall=0.001,stall-cycles=3000,skew=0.02,skew-cycles=500,storm-period=4000,storm-len=400,storm-factor=25")
	if err != nil {
		t.Fatal(err)
	}
	if p.SpuriousAbortRate != 0.01 || p.CoalesceWindow != 400 || p.StormFactor != 25 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip changed the plan: %+v vs %+v", back, p)
	}
}

func TestParsePlanPresetsAndErrors(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParsePlan(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if !p.Enabled() {
			t.Fatalf("preset %s injects nothing", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if p, err := ParsePlan("none"); err != nil || p.Enabled() {
		t.Fatalf("none: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"bogus", "spurious=", "spurious=x", "spurious=2",
		"drop=-0.1", "storm-period=100,storm-len=0", "storm-period=10,storm-len=20",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", bad)
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	if err := (Plan{SpuriousAbortRate: 1.5}).Validate(); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if err := (Plan{StormFactor: -1}).Validate(); err == nil {
		t.Fatal("negative storm factor accepted")
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan rejected: %v", err)
	}
}

func TestInjectorNilForEmptyPlan(t *testing.T) {
	if in := NewInjector(Plan{}, 7); in != nil {
		t.Fatal("empty plan produced a live injector")
	}
	if in := NewInjector(Plan{SpuriousAbortRate: 0.5}, 7); in == nil {
		t.Fatal("enabled plan produced no injector")
	}
}

// TestInjectorNilForCrashOnlyPlan: the pmem tier injects crash points,
// so a plan arming only one (storm geometry aside) has no per-thread
// injector, yet still counts as enabled.
func TestInjectorNilForCrashOnlyPlan(t *testing.T) {
	for _, name := range []string{"crash-mid-log", "torn-flush"} {
		p, err := ParsePlan(name)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Enabled() {
			t.Errorf("%s: plan not enabled", name)
		}
		if in := NewInjector(p, 7); in != nil {
			t.Errorf("%s: crash-only plan produced a live injector", name)
		}
	}
	p := Plan{PmemCrashPoint: PmemCrashBeforeFlush, StormPeriod: 100, StormLength: 10}
	if in := NewInjector(p, 7); in != nil {
		t.Error("crash point plus storm geometry produced a live injector")
	}
	p.StallRate = 0.01
	if in := NewInjector(p, 7); in == nil {
		t.Error("crash point plus a per-thread regime produced no injector")
	}
}

// drive runs a fixed synthetic schedule against an injector and
// returns a transcript of every decision.
func drive(in *Injector) string {
	var b strings.Builder
	snap := []lbr.Entry{
		{Kind: lbr.KindAbort, Abort: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "a"}, To: lbr.IP{Fn: "b"}, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "x"}, To: lbr.IP{Fn: "a"}, InTSX: true},
		{Kind: lbr.KindReturn, From: lbr.IP{Fn: "c"}, To: lbr.IP{Fn: "x"}},
	}
	var now uint64
	for i := 0; i < 5000; i++ {
		in.Tick()
		now += uint64(i%13) * 20 // irregular spacing straddling coalesce windows
		if in.SpuriousAbort() {
			b.WriteByte('S')
		}
		if n := in.Stall(); n > 0 {
			b.WriteString("P")
		}
		if i%7 == 0 {
			if in.DropSample(now) {
				b.WriteByte('D')
			} else {
				b.WriteByte('d')
			}
			cp := append([]lbr.Entry{}, snap...)
			out := in.CorruptLBR(cp)
			b.WriteString(strings.Repeat("L", len(snap)-len(out)))
			if len(out) > 0 && !out[0].Abort {
				b.WriteByte('A')
			}
			_ = in.SkewTime(now)
		}
	}
	return b.String()
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := Presets["all"]
	a := drive(NewInjector(plan, 42))
	b := drive(NewInjector(plan, 42))
	if a != b {
		t.Fatal("same seed produced different fault sequences")
	}
	c := drive(NewInjector(plan, 43))
	if a == c {
		t.Fatal("different seeds produced identical fault sequences (suspicious PRNG)")
	}
}

func TestInjectorStatsCountEveryRegime(t *testing.T) {
	plan := Plan{
		SpuriousAbortRate: 0.2, SampleDropRate: 0.3, CoalesceWindow: 1100,
		LBRTruncateRate: 0.3, LBRStaleRate: 0.3, LBRClearAbortRate: 0.3,
		StallRate: 0.2, ClockSkewRate: 0.3,
		StormPeriod: 100, StormLength: 20, StormFactor: 3,
	}
	in := NewInjector(plan, 1)
	drive(in)
	s := in.Stats
	if s.SpuriousAborts == 0 || s.DroppedSamples == 0 || s.CoalescedSamples == 0 ||
		s.TruncatedLBRs == 0 || s.StaleLBRs == 0 || s.ClearedAbortBits == 0 ||
		s.Stalls == 0 || s.StallCycles == 0 || s.ClockSkews == 0 || s.StormOps == 0 {
		t.Fatalf("some regime never fired: %+v", s)
	}
	if s.Total() == 0 {
		t.Fatal("Total() = 0")
	}
	var merged Stats
	merged.Merge(s)
	merged.Merge(s)
	if merged.Total() != 2*s.Total() {
		t.Fatalf("Merge arithmetic wrong: %d vs %d", merged.Total(), 2*s.Total())
	}
}

func TestStormWindows(t *testing.T) {
	in := NewInjector(Plan{SpuriousAbortRate: 0.001, StormPeriod: 100, StormLength: 25}, 9)
	for i := 0; i < 1000; i++ {
		in.Tick()
	}
	if got, want := in.Stats.StormOps, uint64(250); got != want {
		t.Fatalf("storm ops = %d, want %d", got, want)
	}
}

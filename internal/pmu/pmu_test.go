package pmu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOverflowAtPeriod(t *testing.T) {
	var c Counters
	var p Periods
	p[Cycles] = 10
	c.SetPeriods(p)
	for i := 0; i < 9; i++ {
		if c.Add(Cycles, 1) {
			t.Fatalf("overflow at %d events, period 10", i+1)
		}
	}
	if !c.Add(Cycles, 1) {
		t.Fatal("no overflow at period")
	}
	if c.Add(Cycles, 9) {
		t.Fatal("early overflow after reset")
	}
	if !c.Add(Cycles, 1) {
		t.Fatal("no second overflow")
	}
}

func TestLargeAddKeepsRemainder(t *testing.T) {
	var c Counters
	var p Periods
	p[Cycles] = 10
	c.SetPeriods(p)
	if !c.Add(Cycles, 25) {
		t.Fatal("Add(25) with period 10 must overflow")
	}
	// Remainder is 5; 5 more events overflow again.
	if c.Add(Cycles, 4) {
		t.Fatal("overflowed too early")
	}
	if !c.Add(Cycles, 1) {
		t.Fatal("remainder lost")
	}
}

func TestDisabledEventNeverOverflows(t *testing.T) {
	var c Counters
	c.SetPeriods(Periods{}) // all zero
	for i := 0; i < 1000; i++ {
		if c.Add(TxAbort, 1) {
			t.Fatal("disabled counter overflowed")
		}
	}
	if c.Total(TxAbort) != 1000 {
		t.Fatalf("Total = %d, want 1000 (counting continues when disabled)", c.Total(TxAbort))
	}
}

func TestFreezeSuppressesOverflowButCounts(t *testing.T) {
	var c Counters
	var p Periods
	p[Loads] = 5
	c.SetPeriods(p)
	c.Freeze()
	for i := 0; i < 20; i++ {
		if c.Add(Loads, 1) {
			t.Fatal("frozen counter overflowed")
		}
	}
	if c.Total(Loads) != 20 {
		t.Fatalf("Total = %d, want 20", c.Total(Loads))
	}
	c.Unfreeze()
	// Pending did not accumulate while frozen.
	for i := 0; i < 4; i++ {
		if c.Add(Loads, 1) {
			t.Fatal("overflow before period after unfreeze")
		}
	}
	if !c.Add(Loads, 1) {
		t.Fatal("no overflow after unfreeze")
	}
}

func TestEventsIndependent(t *testing.T) {
	var c Counters
	var p Periods
	p[Cycles] = 100
	p[TxAbort] = 2
	c.SetPeriods(p)
	c.Add(Cycles, 99)
	if !c.Add(TxAbort, 2) {
		t.Fatal("TxAbort should overflow independently")
	}
	if c.Add(Cycles, 0) {
		t.Fatal("zero add overflowed")
	}
	if !c.Add(Cycles, 1) {
		t.Fatal("Cycles overflow lost")
	}
}

func TestEventString(t *testing.T) {
	for e, s := range map[Event]string{Cycles: "cycles", TxAbort: "rtm-abort", TxCommit: "rtm-commit", Loads: "mem-loads", Stores: "mem-stores"} {
		if e.String() != s {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), s)
		}
	}
	if Event(99).String() != "event(99)" {
		t.Errorf("unknown event string = %q", Event(99).String())
	}
}

func TestDefaultPeriodsAllEnabled(t *testing.T) {
	p := DefaultPeriods()
	for e := Event(0); e < NumEvents; e++ {
		if p[e] == 0 {
			t.Errorf("default period for %v is zero", e)
		}
	}
}

// Property: over any sequence of single-event adds, the number of
// overflows equals total/period.
func TestQuickOverflowCount(t *testing.T) {
	f := func(period8 uint8, n16 uint16) bool {
		period := uint64(period8)%50 + 1
		n := uint64(n16) % 5000
		var c Counters
		var p Periods
		p[Stores] = period
		c.SetPeriods(p)
		overflows := uint64(0)
		for i := uint64(0); i < n; i++ {
			if c.Add(Stores, 1) {
				overflows++
			}
		}
		return overflows == n/period && c.Total(Stores) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterVariesThresholds(t *testing.T) {
	var c Counters
	var p Periods
	p[Cycles] = 1000
	c.SetPeriods(p)
	c.EnableJitter(42)
	// Count events between overflows over several windows; with
	// jitter the gaps must not all be identical.
	gaps := map[uint64]bool{}
	since := uint64(0)
	for i := 0; i < 20000 && len(gaps) < 3; i++ {
		since++
		if c.Add(Cycles, 1) {
			gaps[since] = true
			since = 0
		}
	}
	if len(gaps) < 3 {
		t.Fatalf("jittered thresholds produced only %d distinct gaps", len(gaps))
	}
	// All gaps stay within ±1/16 of the period.
	for g := range gaps {
		if g < 1000-1000/16 || g > 1000+1000/16 {
			t.Fatalf("gap %d outside the jitter window", g)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		var c Counters
		var p Periods
		p[Cycles] = 100
		c.SetPeriods(p)
		c.EnableJitter(seed)
		out := make([]bool, 1000)
		for i := range out {
			out[i] = c.Add(Cycles, 1)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different overflow patterns")
		}
	}
	c, d := run(7), run(8)
	same := true
	for i := range c {
		if c[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical overflow patterns")
	}
}

func TestJitterDisabledForTinyPeriods(t *testing.T) {
	// Period < 8 has a zero jitter span: behaviour stays exact.
	var c Counters
	var p Periods
	p[TxAbort] = 1
	c.SetPeriods(p)
	c.EnableJitter(99)
	for i := 0; i < 50; i++ {
		if !c.Add(TxAbort, 1) {
			t.Fatal("period-1 counter missed an overflow under jitter")
		}
	}
}

// Headroom is exact: Adds totalling Headroom(e) events never overflow
// and one event more always does, including when a large Add left its
// remainder at or past a jittered next threshold.
func TestHeadroomIsExact(t *testing.T) {
	f := func(seed uint64, adds []uint16) bool {
		var c Counters
		var p Periods
		p[Cycles] = 1000
		c.SetPeriods(p)
		c.EnableJitter(seed | 1)
		for _, n := range adds {
			h := c.Headroom(Cycles)
			if over := c; !over.Add(Cycles, h+1) {
				return false
			}
			if fit := c; h > 0 && (fit.Add(Cycles, h/2) || fit.Add(Cycles, h-h/2)) {
				return false
			}
			c.Add(Cycles, uint64(n))
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var c Counters
	c.SetPeriods(Periods{Cycles: 10})
	if h := c.Headroom(Loads); h != math.MaxUint64 {
		t.Fatalf("unsampled event headroom %d, want unbounded", h)
	}
	c.Freeze()
	if h := c.Headroom(Cycles); h != math.MaxUint64 {
		t.Fatalf("frozen counter headroom %d, want unbounded", h)
	}
}

package machine

import (
	"testing"

	"txsampler/internal/htm"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
)

func TestStartSkewDeterministicAndBounded(t *testing.T) {
	mk := func() []uint64 {
		m := New(Config{Threads: 8, Seed: 3, StartSkew: 500})
		out := make([]uint64, 8)
		for i := 0; i < 8; i++ {
			out[i] = m.Thread(i).Clock()
		}
		return out
	}
	a, b := mk(), mk()
	distinct := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("skew not deterministic: %v vs %v", a, b)
		}
		if a[i] >= 500 {
			t.Fatalf("skew %d out of bounds", a[i])
		}
		if a[i] != a[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all threads got identical skew")
	}
}

func TestNoSkewByDefault(t *testing.T) {
	m := New(Config{Threads: 4, Seed: 3})
	for i := 0; i < 4; i++ {
		if m.Thread(i).Clock() != 0 {
			t.Fatalf("thread %d starts at %d without StartSkew", i, m.Thread(i).Clock())
		}
	}
}

func TestJitteredSamplingStaysDeterministic(t *testing.T) {
	run := func() uint64 {
		var p pmu.Periods
		p[pmu.Cycles] = 300
		m := New(Config{Threads: 4, Seed: 11, Periods: p, StartSkew: 512})
		h := &collectHandler{}
		m.SetHandler(h)
		a := m.Mem.AllocWords(4)
		if err := m.RunAll(func(t *Thread) {
			for i := 0; i < 100; i++ {
				t.Attempt(func() { t.Add(a.Offset(t.ID), 1) })
				t.Compute(20)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return uint64(len(h.samples))*1_000_000 + m.Elapsed()
	}
	if run() != run() {
		t.Fatal("jittered runs with identical seeds differ")
	}
}

func TestAtomicCASInsideTransaction(t *testing.T) {
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(1)
	m.Mem.Store(a, 5)
	var okSwap, failSwap bool
	err := m.RunAll(func(t *Thread) {
		ab := t.Attempt(func() {
			okSwap = t.AtomicCAS(a, 5, 9)
			failSwap = t.AtomicCAS(a, 5, 11) // now reads buffered 9
		})
		if ab != nil {
			panic("unexpected abort")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !okSwap || failSwap {
		t.Fatalf("CAS results: %v %v, want true,false", okSwap, failSwap)
	}
	if v := m.Mem.Load(a); v != 9 {
		t.Fatalf("memory = %d, want 9", v)
	}
}

// TestReadCapacityViaLoads: a transaction that loads one line more
// than the L1 tracks aborts with a read-capacity abort.
func TestReadCapacityViaLoads(t *testing.T) {
	m := New(Config{Threads: 1})
	geo := m.Config().Cache
	lines := geo.Sets*geo.Ways + 1
	base := m.Mem.AllocLines(lines)
	var info *AbortInfo
	err := m.RunAll(func(t *Thread) {
		info = t.Attempt(func() {
			for i := 0; i < lines; i++ {
				t.Load(base + mem.Addr(i*mem.LineSize))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Cause != htm.Capacity || info.CapKind != htm.CapacityRead {
		t.Fatalf("abort = %+v, want read capacity", info)
	}
}

func TestElapsedIsMaxTotalIsSum(t *testing.T) {
	m := New(Config{Threads: 2})
	err := m.Run(
		func(t *Thread) { t.Compute(100) },
		func(t *Thread) { t.Compute(300) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() != 300 {
		t.Fatalf("Elapsed = %d, want 300", m.Elapsed())
	}
	if m.TotalCycles() != 400 {
		t.Fatalf("TotalCycles = %d, want 400", m.TotalCycles())
	}
}

func TestPerThreadGroundTruth(t *testing.T) {
	m := New(Config{Threads: 2})
	a := m.Mem.AllocLines(2)
	err := m.Run(
		func(t *Thread) {
			for i := 0; i < 5; i++ {
				t.Attempt(func() { t.Add(a, 1) })
			}
		},
		func(t *Thread) {
			for i := 0; i < 3; i++ {
				t.Attempt(func() { t.Add(a+mem.LineSize, 1) })
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := m.GroundTruth()
	if g.PerThreadCommits[0] != 5 || g.PerThreadCommits[1] != 3 {
		t.Fatalf("per-thread commits = %v", g.PerThreadCommits)
	}
	if g.Commits != 8 {
		t.Fatalf("total commits = %d", g.Commits)
	}
}

func TestCountersTrackTotals(t *testing.T) {
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(4)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Load(a.Offset(i % 4))
		}
		for i := 0; i < 7; i++ {
			t.Store(a.Offset(i%4), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Thread(0).Counters()
	if c.Total(pmu.Loads) != 10 {
		t.Fatalf("loads = %d, want 10", c.Total(pmu.Loads))
	}
	if c.Total(pmu.Stores) != 7 {
		t.Fatalf("stores = %d, want 7", c.Total(pmu.Stores))
	}
	if c.Total(pmu.Cycles) != m.Thread(0).Clock() {
		t.Fatalf("cycles counter %d != clock %d", c.Total(pmu.Cycles), m.Thread(0).Clock())
	}
}

func TestLBRDepthConfigured(t *testing.T) {
	var p pmu.Periods
	p[pmu.Cycles] = 100
	m := New(Config{Threads: 1, LBRDepth: 4, Periods: p})
	h := &collectHandler{}
	m.SetHandler(h)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 10; i++ {
			t.Func("a", func() { t.Func("b", func() { t.Compute(30) }) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range h.samples {
		if len(s.LBR) > 4 {
			t.Fatalf("LBR snapshot has %d entries with depth 4", len(s.LBR))
		}
	}
}

func TestInterruptAbortsAreDistinctCause(t *testing.T) {
	var p pmu.Periods
	p[pmu.Cycles] = 200
	m := New(Config{Threads: 1, Periods: p})
	m.SetHandler(&collectHandler{})
	a := m.Mem.AllocWords(1)
	retried := 0
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 50; i++ {
			for {
				if ab := t.Attempt(func() {
					t.Compute(100)
					t.Add(a, 1)
				}); ab == nil {
					break
				} else if ab.Cause != htm.Interrupt {
					panic("single-thread abort must be interrupt-induced")
				}
				retried++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if retried == 0 {
		t.Fatal("dense sampling on a single thread produced no interrupt aborts")
	}
	if v := m.Mem.Load(a); v != 50 {
		t.Fatalf("counter = %d, want 50", v)
	}
}

func TestRunAllZeroThreadsDefaultsToOne(t *testing.T) {
	m := New(Config{})
	ran := false
	if err := m.RunAll(func(t *Thread) { ran = true; t.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestNestedAttemptsFlatten(t *testing.T) {
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(2)
	err := m.RunAll(func(th *Thread) {
		ab := th.Attempt(func() {
			th.Store(a, 1)
			inner := th.Attempt(func() { th.Store(a.Offset(1), 2) })
			if inner != nil {
				panic("inner attempt must not report its own abort")
			}
		})
		if ab != nil {
			panic("flattened transaction should commit")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem.Load(a) != 1 || m.Mem.Load(a.Offset(1)) != 2 {
		t.Fatal("nested stores lost")
	}
	if g := m.GroundTruth(); g.Commits != 1 {
		t.Fatalf("commits = %d, want 1 (flattening commits once)", g.Commits)
	}
}

func TestNestedAbortUnwindsToOutermost(t *testing.T) {
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(1)
	var innerCaught, outerCaught bool
	err := m.RunAll(func(th *Thread) {
		ab := th.Attempt(func() {
			th.Store(a, 7)
			inner := th.Attempt(func() { th.Syscall("x") })
			innerCaught = inner != nil // must stay false: abort passes through
		})
		outerCaught = ab != nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if innerCaught {
		t.Fatal("inner Attempt swallowed a flattened abort")
	}
	if !outerCaught {
		t.Fatal("outer Attempt did not observe the abort")
	}
	if m.Mem.Load(a) != 0 {
		t.Fatal("outer store survived a flattened abort")
	}
}

func TestNestingLimitAborts(t *testing.T) {
	m := New(Config{Threads: 1})
	var cause string
	err := m.RunAll(func(th *Thread) {
		var nest func(d int)
		nest = func(d int) {
			if d >= MaxTxNest+2 {
				th.Compute(1)
				return
			}
			th.Attempt(func() { nest(d + 1) })
		}
		ab := th.Attempt(func() { nest(1) })
		if ab != nil {
			cause = ab.Cause.String()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cause != "explicit" {
		t.Fatalf("over-nesting cause = %q, want explicit abort", cause)
	}
}

func TestPageFaultAbortsTransaction(t *testing.T) {
	m := New(Config{Threads: 1})
	var info *AbortInfo
	err := m.RunAll(func(th *Thread) {
		info = th.Attempt(func() { th.PageFault() })
		th.PageFault() // outside a tx: just expensive
	})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Cause != htm.Sync {
		t.Fatalf("abort = %+v, want sync", info)
	}
	if m.Elapsed() < 3*syscallCost {
		t.Fatalf("non-tx page fault too cheap: %d", m.Elapsed())
	}
}

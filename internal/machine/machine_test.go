package machine

import (
	"testing"

	"txsampler/internal/htm"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
)

func single() *Machine { return New(Config{Threads: 1}) }

func TestComputeAdvancesClock(t *testing.T) {
	m := single()
	err := m.RunAll(func(t *Thread) { t.Compute(100) })
	if err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() != 100*computeCost {
		t.Fatalf("Elapsed = %d", m.Elapsed())
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := single()
	a := m.Mem.AllocWords(2)
	var got mem.Word
	err := m.RunAll(func(t *Thread) {
		t.Store(a, 11)
		t.Store(a.Offset(1), 22)
		got = t.Load(a) + t.Load(a.Offset(1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Fatalf("got %d, want 33", got)
	}
}

func TestAtomicAddNoLostUpdates(t *testing.T) {
	m := New(Config{Threads: 4})
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 50; i++ {
			t.AtomicAdd(a, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Mem.Load(a); v != 200 {
		t.Fatalf("counter = %d, want 200", v)
	}
}

func TestPlainAddCanLoseUpdates(t *testing.T) {
	// Non-atomic read-modify-write across threads is racy by design;
	// the simulation must expose the interleaving, not hide it.
	m := New(Config{Threads: 8, Seed: 3})
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 100; i++ {
			t.Add(a, 1)
			t.Compute(t.Rand().Intn(5))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Mem.Load(a); v > 800 {
		t.Fatalf("counter = %d > 800: impossible", v)
	}
}

func TestCommittedTxVisible(t *testing.T) {
	m := single()
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(t *Thread) {
		if ab := t.Attempt(func() { t.Store(a, 5) }); ab != nil {
			t.Compute(1) // unreachable: single thread cannot conflict
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Mem.Load(a); v != 5 {
		t.Fatalf("memory = %d after commit, want 5", v)
	}
	if g := m.GroundTruth(); g.Commits != 1 {
		t.Fatalf("commits = %d", g.Commits)
	}
}

func TestExplicitAbortDiscardsStores(t *testing.T) {
	m := single()
	a := m.Mem.AllocWords(1)
	m.Mem.Store(a, 1)
	var info *AbortInfo
	err := m.RunAll(func(t *Thread) {
		info = t.Attempt(func() {
			t.Store(a, 99)
			t.TxAbort()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Cause != htm.Explicit {
		t.Fatalf("abort info = %+v", info)
	}
	if v := m.Mem.Load(a); v != 1 {
		t.Fatalf("aborted store leaked: memory = %d", v)
	}
}

// Attempt returns the thread's own abort record, which the next abort
// overwrites, so an aborted attempt allocates nothing once the
// thread's reused Tx exists.
func TestAbortedAttemptAllocatesNothing(t *testing.T) {
	m := single()
	a := m.Mem.AllocWords(1)
	var allocs float64
	var first, second *AbortInfo
	var cause htm.Cause
	err := m.RunAll(func(t *Thread) {
		first = t.Attempt(func() { t.TxAbort() })
		second = t.Attempt(func() { t.Syscall("write") })
		cause = first.Cause
		allocs = testing.AllocsPerRun(100, func() {
			t.Attempt(func() {
				t.Store(a, 1)
				t.TxAbort()
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per aborted attempt, want 0", allocs)
	}
	if first != second || cause != htm.Sync {
		t.Errorf("aborts returned records at %p and %p, the first reading %v after the second abort; want one record holding the sync abort",
			first, second, cause)
	}
}

func TestTxReadsOwnBufferedStore(t *testing.T) {
	m := single()
	a := m.Mem.AllocWords(1)
	m.Mem.Store(a, 10)
	var seen mem.Word
	err := m.RunAll(func(t *Thread) {
		t.Attempt(func() {
			t.Store(a, 20)
			seen = t.Load(a)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 20 {
		t.Fatalf("in-tx load = %d, want own store 20", seen)
	}
}

func TestSyscallAbortsTransaction(t *testing.T) {
	m := single()
	var info *AbortInfo
	err := m.RunAll(func(t *Thread) {
		info = t.Attempt(func() { t.Syscall("write") })
	})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Cause != htm.Sync {
		t.Fatalf("abort = %+v, want sync abort", info)
	}
	if info.Cause.Retryable() {
		t.Fatal("sync abort reported retryable")
	}
}

func TestCapacityAbort(t *testing.T) {
	m := single()
	cfg := m.Config().Cache
	// Write Ways+1 lines mapping to the same L1 set.
	stride := mem.Addr(mem.LineSize * cfg.Sets)
	base := m.Mem.Alloc(int(stride)*(cfg.Ways+2), mem.LineSize*mem.Addr(cfg.Sets))
	var info *AbortInfo
	err := m.RunAll(func(t *Thread) {
		info = t.Attempt(func() {
			for i := 0; i <= cfg.Ways; i++ {
				t.Store(base+mem.Addr(i)*stride, 1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Cause != htm.Capacity || info.CapKind != htm.CapacityWrite {
		t.Fatalf("abort = %+v, want write-capacity", info)
	}
}

func TestConflictAbortBetweenThreads(t *testing.T) {
	// Both threads transactionally increment the same word many
	// times with retry-until-commit: conflicts must occur, and the
	// final count must still be exact (committed transactions are
	// serializable).
	m := New(Config{Threads: 2, Seed: 7})
	a := m.Mem.AllocWords(1)
	const per = 200
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < per; i++ {
			for {
				if ab := t.Attempt(func() {
					v := t.Load(a)
					t.Compute(20)
					t.Store(a, v+1)
				}); ab == nil {
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Mem.Load(a); v != 2*per {
		t.Fatalf("counter = %d, want %d", v, 2*per)
	}
	g := m.GroundTruth()
	if g.Aborts[htm.Conflict] == 0 {
		t.Fatal("no conflict aborts under heavy contention")
	}
	if g.Commits != 2*per {
		t.Fatalf("commits = %d, want %d", g.Commits, 2*per)
	}
}

func TestNonTxWriteAbortsRemoteTx(t *testing.T) {
	m := New(Config{Threads: 2})
	a := m.Mem.AllocWords(1)
	flag := m.Mem.AllocWords(1)
	var cause htm.Cause
	err := m.Run(
		func(t *Thread) {
			ab := t.Attempt(func() {
				t.Load(a)
				t.Store(flag, 1) // signal intent via a different line
				for i := 0; i < 2000; i++ {
					t.Compute(10)
				}
			})
			if ab != nil {
				cause = ab.Cause
			}
		},
		func(t *Thread) {
			t.Compute(500) // let thread 0 enter its transaction
			t.Store(a, 7)  // non-transactional conflicting write
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if cause != htm.Conflict {
		t.Fatalf("cause = %v, want conflict from non-tx write", cause)
	}
}

func TestStackRollsBackOnAbort(t *testing.T) {
	m := single()
	var depthInTx, depthAfter int
	err := m.RunAll(func(t *Thread) {
		t.Func("outer", func() {
			ab := t.Attempt(func() {
				t.Func("inner", func() {
					depthInTx = len(t.CallStack())
					t.Syscall("boom")
				})
			})
			if ab == nil {
				panic("expected abort")
			}
			depthAfter = len(t.CallStack())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if depthInTx != 3 { // thread_root, outer, inner
		t.Fatalf("depth in tx = %d, want 3", depthInTx)
	}
	if depthAfter != 2 { // inner frame rolled back
		t.Fatalf("depth after abort = %d, want 2", depthAfter)
	}
}

func TestSiteRollsBackOnAbort(t *testing.T) {
	m := single()
	var after string
	err := m.RunAll(func(t *Thread) {
		t.At("before_tx")
		t.Attempt(func() {
			t.At("inside_tx")
			t.Syscall("x")
		})
		after = t.CallStack()[0].Site
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != "before_tx" {
		t.Fatalf("site after abort = %q, want %q", after, "before_tx")
	}
}

// collectHandler records every delivered sample.
type collectHandler struct{ samples []*Sample }

// Clone: the machine reuses the delivered sample across deliveries.
func (h *collectHandler) HandleSample(s *Sample) { h.samples = append(h.samples, s.Clone()) }

func TestSamplingDeliversAndAborts(t *testing.T) {
	var periods pmu.Periods
	periods[pmu.Cycles] = 500
	m := New(Config{Threads: 2, Periods: periods, Seed: 1})
	h := &collectHandler{}
	m.SetHandler(h)
	a := m.Mem.AllocWords(64)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 100; i++ {
			for {
				if ab := t.Attempt(func() {
					t.Compute(50)
					t.Add(a.Offset(t.ID*8), 1)
				}); ab == nil {
					break
				}
			}
			t.Compute(50)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.samples) == 0 {
		t.Fatal("no samples delivered")
	}
	var inTx, outTx int
	for _, s := range h.samples {
		if s.TruthInTx {
			inTx++
			if len(s.LBR) == 0 || !s.LBR[0].Abort {
				t.Fatal("in-tx sample lacks LBR abort bit on the top entry")
			}
		} else {
			outTx++
			if len(s.LBR) > 0 && s.LBR[0].Abort {
				t.Fatal("out-of-tx sample has abort bit set")
			}
		}
	}
	if inTx == 0 || outTx == 0 {
		t.Fatalf("sample mix inTx=%d outTx=%d: want both kinds", inTx, outTx)
	}
	g := m.GroundTruth()
	if g.Aborts[htm.Interrupt] == 0 {
		t.Fatal("sampling produced no interrupt-induced aborts")
	}
	if g.Commits != 200 {
		t.Fatalf("commits = %d, want 200 despite sampling aborts", g.Commits)
	}
}

func TestAbortSamplesCarryWeightAndCause(t *testing.T) {
	var periods pmu.Periods
	periods[pmu.TxAbort] = 1 // sample every abort
	m := New(Config{Threads: 1, Periods: periods})
	h := &collectHandler{}
	m.SetHandler(h)
	err := m.RunAll(func(t *Thread) {
		t.Attempt(func() {
			t.Compute(100)
			t.Syscall("x")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var abortSamples []*Sample
	for _, s := range h.samples {
		if s.Event == pmu.TxAbort {
			abortSamples = append(abortSamples, s)
		}
	}
	if len(abortSamples) != 1 {
		t.Fatalf("abort samples = %d, want 1", len(abortSamples))
	}
	s := abortSamples[0]
	if s.Abort == nil || s.Abort.Cause != htm.Sync {
		t.Fatalf("abort sample cause = %+v", s.Abort)
	}
	if s.Abort.Weight < 100 {
		t.Fatalf("weight = %d, want >= 100 (cycles burned in tx)", s.Abort.Weight)
	}
}

func TestMemorySamplesCarryAddress(t *testing.T) {
	var periods pmu.Periods
	periods[pmu.Stores] = 3
	m := New(Config{Threads: 1, Periods: periods})
	h := &collectHandler{}
	m.SetHandler(h)
	a := m.Mem.AllocWords(16)
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 30; i++ {
			t.Store(a.Offset(i%16), 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range h.samples {
		if s.Event == pmu.Stores {
			found = true
			if !s.HasAddr || !s.IsWrite || s.Addr < a || s.Addr >= a.Offset(16) {
				t.Fatalf("bad store sample: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("no store samples")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		var periods pmu.Periods
		periods[pmu.Cycles] = 700
		m := New(Config{Threads: 4, Seed: 42, Periods: periods})
		m.SetHandler(&collectHandler{})
		a := m.Mem.AllocWords(8)
		if err := m.RunAll(func(t *Thread) {
			for i := 0; i < 50; i++ {
				for {
					if ab := t.Attempt(func() {
						t.Add(a.Offset(t.Rand().Intn(8)), 1)
					}); ab == nil {
						break
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		g := m.GroundTruth()
		var aborts uint64
		for _, n := range g.Aborts {
			aborts += n
		}
		return m.Elapsed(), g.Commits, aborts
	}
	e1, c1, a1 := run()
	e2, c2, a2 := run()
	if e1 != e2 || c1 != c2 || a1 != a2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, c1, a1, e2, c2, a2)
	}
}

func TestWorkloadPanicIsReported(t *testing.T) {
	m := New(Config{Threads: 2})
	err := m.Run(
		func(t *Thread) { t.Compute(10) },
		func(t *Thread) { panic("workload bug") },
	)
	if err == nil {
		t.Fatal("workload panic not reported")
	}
}

func TestSchedulerInterleavesByClock(t *testing.T) {
	// A thread doing cheap ops must complete many more operations
	// than one doing expensive ops over the same simulated window.
	m := New(Config{Threads: 2})
	var cheap, costly int
	err := m.Run(
		func(t *Thread) {
			for t.Clock() < 10_000 {
				t.Compute(1)
				cheap++
			}
		},
		func(t *Thread) {
			for t.Clock() < 10_000 {
				t.Compute(100)
				costly++
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if cheap < costly*50 {
		t.Fatalf("cheap=%d costly=%d: scheduler not clock-proportional", cheap, costly)
	}
}

func TestLBRRecordsCallsAndReturns(t *testing.T) {
	var periods pmu.Periods
	periods[pmu.Cycles] = 100_000 // effectively off; we inspect via sample at end
	m := New(Config{Threads: 1, Periods: periods})
	h := &collectHandler{}
	m.SetHandler(h)
	err := m.RunAll(func(t *Thread) {
		t.Func("f", func() {
			t.Func("g", func() { t.Compute(1) })
		})
		t.Compute(100_000) // force a cycles sample now
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.samples) == 0 {
		t.Fatal("no sample")
	}
	var calls, rets int
	for _, e := range h.samples[0].LBR {
		switch e.Kind {
		case 0: // lbr.KindCall
			calls++
		case 1: // lbr.KindReturn
			rets++
		}
	}
	if calls < 2 || rets < 2 {
		t.Fatalf("LBR calls=%d rets=%d, want >=2 each", calls, rets)
	}
}

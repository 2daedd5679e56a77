package machine

// Failure injection: the machine must fail fast and loudly on broken
// workloads and broken profilers, never hang or corrupt state.

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"txsampler/internal/mem"
	"txsampler/internal/pmu"
)

func TestPanicWhileHoldingSpinLockFailsFast(t *testing.T) {
	// Thread 1 dies while other threads spin on a word it owns; the
	// scheduler must surface the panic instead of spinning forever.
	m := New(Config{Threads: 3})
	lock := m.Mem.AllocLines(1)
	err := m.Run(
		func(t *Thread) {
			for t.Load(lock) == 0 {
				t.Compute(2)
			}
		},
		func(t *Thread) {
			t.AtomicCAS(lock, 0, 1)
			t.Store(lock, 0)
			panic("injected fault")
		},
		func(t *Thread) {
			for t.Load(lock) == 0 {
				t.Compute(2)
			}
		},
	)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("err = %v, want the injected fault", err)
	}
}

type panickyHandler struct{ after int }

func (h *panickyHandler) HandleSample(s *Sample) {
	h.after--
	if h.after <= 0 {
		panic("profiler bug")
	}
}

func TestPanickingHandlerSurfaces(t *testing.T) {
	var p pmu.Periods
	p[pmu.Cycles] = 100
	m := New(Config{Threads: 2, Periods: p})
	m.SetHandler(&panickyHandler{after: 3})
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < 100; i++ {
			t.Compute(50)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "profiler bug") {
		t.Fatalf("err = %v, want the handler panic", err)
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(Config{Threads: 1})
	if err := m.RunAll(func(t *Thread) { t.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = m.RunAll(func(t *Thread) {})
}

func TestWrongBodyCountPanics(t *testing.T) {
	m := New(Config{Threads: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched body count did not panic")
		}
	}()
	_ = m.Run(func(t *Thread) {})
}

func TestReturnWithoutCallPanicsAsWorkloadError(t *testing.T) {
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) { t.Return() })
	if err == nil || !strings.Contains(err.Error(), "empty call stack") {
		t.Fatalf("err = %v", err)
	}
}

func TestTxCommitOutsideTransactionIsWorkloadError(t *testing.T) {
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) { t.TxCommit() })
	if err == nil || !strings.Contains(err.Error(), "TxCommit outside") {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortSentinelEscapingAttemptIsWorkloadError(t *testing.T) {
	// TxBegin without Attempt: the abort unwinds to the thread root
	// and must be reported, not swallowed.
	m := New(Config{Threads: 1})
	err := m.RunAll(func(t *Thread) {
		t.TxBegin()
		t.Syscall("boom")
		t.TxCommit()
	})
	if err == nil {
		t.Fatal("escaped abort sentinel not reported")
	}
}

func TestFailedRunReleasesThreads(t *testing.T) {
	// Every thread still unfinished when a run fails must unwind before
	// Run returns: a thread left suspended keeps its goroutine and,
	// through it, the whole machine reachable.
	const threads = 14
	// work commits transactions on the thread's own line: they never
	// conflict, and every operation inside one is a gate point, so the
	// other threads are suspended mid-transaction when the run fails.
	work := func(th *Thread, lines mem.Addr, after func(i int)) {
		a := lines.Offset(th.ID * mem.WordsPerLine)
		for i := 0; i < 1000; i++ {
			th.Attempt(func() {
				th.Add(a, 1)
				th.Compute(5)
			})
			after(i)
		}
	}
	runs := []struct {
		name string
		run  func() error
	}{
		{"panic", func() error {
			m := New(Config{Threads: threads, Seed: 1, StartSkew: 512})
			lines := m.Mem.AllocLines(threads)
			return m.RunAll(func(th *Thread) {
				work(th, lines, func(i int) {
					if th.ID == 3 && i == 5 {
						panic("injected fault")
					}
				})
			})
		}},
		{"max-cycles", func() error {
			m := New(Config{Threads: threads, Seed: 1, StartSkew: 512, MaxCycles: 40_000})
			lock := m.Mem.AllocLines(1)
			return m.RunAll(func(th *Thread) {
				if th.AtomicCAS(lock, 0, 1) {
					return // the owner never releases the lock
				}
				th.SpinWhileNonzero(lock, 4)
			})
		}},
		{"canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := New(Config{Threads: threads, Seed: 1, StartSkew: 512, Quantum: 8, Context: ctx})
			lines := m.Mem.AllocLines(threads)
			return m.RunAll(func(th *Thread) {
				work(th, lines, func(i int) {
					if th.ID == 0 && i == 5 {
						cancel()
					}
				})
			})
		}},
	}
	for _, r := range runs {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			if err := r.run(); err == nil {
				t.Fatalf("%s: run succeeded", r.name)
			}
		}
		// Run returns once every thread has unwound; only the watchdog
		// and context watchers may still be on their way out.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after 10 failed runs, want at most %d", r.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

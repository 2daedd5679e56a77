package machine

// Equivalence of the gate-point scheduler with the per-op oracle
// (Quantum=1, a baton handoff to the smallest pending (clock, ID) after
// every operation): both must produce byte-identical schedules — same
// sample stream, same clocks, same ground truth, same canonical
// interleavings — for any GOMAXPROCS, including the horizon edge
// cases: threads tied at the same minimum clock, a thread exiting while
// it holds the minimum, and spinners asleep in a spin-wait fast-forward
// woken at, before and after their own iteration positions.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"txsampler/internal/faults"
	"txsampler/internal/pmem"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// requireSameRun asserts two captured runs are identical in every
// observable the schedule determines.
func requireSameRun(t *testing.T, label string, got, want quantumRun) {
	t.Helper()
	if got.elapsed != want.elapsed || got.total != want.total {
		t.Fatalf("%s: clocks diverge: elapsed %d vs %d, total %d vs %d",
			label, got.elapsed, want.elapsed, got.total, want.total)
	}
	if !reflect.DeepEqual(got.commits, want.commits) || !reflect.DeepEqual(got.aborts, want.aborts) {
		t.Fatalf("%s: ground truth diverges: commits %v vs %v, aborts %v vs %v",
			label, got.commits, want.commits, got.aborts, want.aborts)
	}
	if got.interleavings != want.interleavings || got.spins != want.spins {
		t.Fatalf("%s: %d interleavings and %d spins vs %d and %d",
			label, got.interleavings, got.spins, want.interleavings, want.spins)
	}
	if len(got.samples) != len(want.samples) {
		t.Fatalf("%s: %d samples vs %d", label, len(got.samples), len(want.samples))
	}
	for i := range want.samples {
		if !reflect.DeepEqual(got.samples[i], want.samples[i]) {
			t.Fatalf("%s: sample %d diverges:\ngot:  %+v\nwant: %+v",
				label, i, got.samples[i], want.samples[i])
		}
	}
}

// capture records a finished run's schedule-determined observables.
func capture(m *Machine, h *collectHandler) quantumRun {
	r := quantumRun{samples: h.samples, elapsed: m.Elapsed(), total: m.TotalCycles()}
	g := m.GroundTruth()
	r.commits = g.PerThreadCommits
	r.aborts = g.PerThreadAborts
	for _, th := range m.threads {
		r.interleavings += th.interleavings
		r.spins += th.spinIters
	}
	return r
}

// contendedConfig is the config of the contended workload below,
// parameterized by quantum and start skew.
func contendedConfig(quantum int, skew uint64) Config {
	var p pmu.Periods
	p[pmu.Cycles] = 400
	p[pmu.TxAbort] = 4
	p[pmu.TxCommit] = 8
	p[pmu.Loads] = 300
	p[pmu.Stores] = 300
	return Config{Threads: 4, Seed: 42, Periods: p, StartSkew: skew, Quantum: quantum}
}

// contendedBody returns a transactional workload where every thread
// hammers the same 8 words, so aborts, retries, and samples all depend
// on the exact interleaving the scheduler picks.
func contendedBody(m *Machine, iters int) func(*Thread) {
	a := m.Mem.AllocWords(8)
	return func(t *Thread) {
		for i := 0; i < iters; i++ {
			t.Func("worker", func() {
				t.At("loop")
				for {
					if t.Attempt(func() {
						t.Add(a.Offset(i%8), 1)
						t.Compute(5)
					}) == nil {
						break
					}
					t.Compute(20) // backoff before the retry
				}
			})
		}
	}
}

// runContended builds the machine first (the body needs its memory)
// and runs the contended workload.
func runContended(t *testing.T, cfg Config, iters int) quantumRun {
	t.Helper()
	m := New(cfg)
	h := &collectHandler{}
	m.SetHandler(h)
	if err := m.RunAll(contendedBody(m, iters)); err != nil {
		t.Fatalf("quantum %d: %v", cfg.Quantum, err)
	}
	return capture(m, h)
}

// TestSchedulerModeEquivalence is the scheduler gate: gate-point
// handoff must reproduce the per-op oracle byte for byte across
// GOMAXPROCS settings (1 time-slices every thread goroutine on one
// core; higher counts let handoffs wake threads on other cores).
func TestSchedulerModeEquivalence(t *testing.T) {
	oracle := runContended(t, contendedConfig(1, 512), 150)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := runContended(t, contendedConfig(0, 512), 150)
		requireSameRun(t, fmt.Sprintf("gate-point GOMAXPROCS=%d vs oracle", procs), got, oracle)
	}
	if oracle.interleavings == 0 {
		t.Fatal("contended workload never interleaved; the comparison is vacuous")
	}
}

// TestHorizonIdenticalMinClock ties threads at the same pending clock:
// with StartSkew=0 and identical bodies every thread reaches each
// shared operation at exactly the same clock, so every gate must break
// the tie by thread ID to reproduce the oracle.
func TestHorizonIdenticalMinClock(t *testing.T) {
	oracle := runContended(t, contendedConfig(1, 0), 100)
	got := runContended(t, contendedConfig(0, 0), 100)
	requireSameRun(t, "identical clocks: gate-point vs oracle", got, oracle)
}

// TestHorizonThreadExitWhileMin exits a thread while it holds the
// minimum clock: thread 0 stops after a handful of operations while
// the rest keep going, so its exit must hand the baton to the next
// pending thread, and no later horizon may still count the dead one.
func TestHorizonThreadExitWhileMin(t *testing.T) {
	run := func(quantum int) quantumRun {
		var p pmu.Periods
		p[pmu.Cycles] = 250
		p[pmu.Stores] = 100
		m := New(Config{Threads: 4, Seed: 7, Periods: p, Quantum: quantum})
		a := m.Mem.AllocWords(4)
		h := &collectHandler{}
		m.SetHandler(h)
		err := m.RunAll(func(t *Thread) {
			iters := 400
			if t.ID == 0 {
				iters = 3 // exits holding the minimum clock
			}
			for i := 0; i < iters; i++ {
				t.Store(a.Offset(t.ID%4), uint64(i))
				t.Compute(2)
			}
		})
		if err != nil {
			t.Fatalf("quantum %d: %v", quantum, err)
		}
		return capture(m, h)
	}

	oracle := run(1)
	got := run(0)
	requireSameRun(t, "early exit: gate-point vs oracle", got, oracle)
	if len(oracle.samples) == 0 {
		t.Fatal("workload produced no samples; the comparison is vacuous")
	}
}

// TestTxBeginHandsNothingOff pins an outermost XBEGIN as thread-private.
// Both threads start at cycle 0. Thread 0's Compute(100) runs past
// thread 1's pending position, and its XBEGIN at cycle 100 must still
// keep the baton: the new transaction tracks no line, so no other
// thread can reach it before its first transactional access, which
// gates and hands off. Thread 1 stores to the line at cycle 120,
// between thread 0's XBEGIN and that access, so the transaction must
// read the new value, and a second store conflicts with its read set.
// The run must match the per-op oracle.
func TestTxBeginHandsNothingOff(t *testing.T) {
	type result struct {
		run                   quantumRun
		atAccess, afterAccess uint64 // thread 0's handoffs around its first tx access
		loaded                []uint64
		final                 uint64
	}
	run := func(quantum int) result {
		var p pmu.Periods
		p[pmu.Loads] = 2
		p[pmu.TxAbort] = 1
		m := New(Config{Threads: 2, Seed: 3, Periods: p, Quantum: quantum})
		a, b := m.Mem.AllocLines(1), m.Mem.AllocLines(1)
		h := &collectHandler{}
		m.SetHandler(h)
		var r result
		err := m.Run(
			func(t *Thread) {
				t.Compute(100)
				for t.Attempt(func() {
					before := t.handoffs
					v := t.Load(a)
					if r.loaded == nil {
						r.atAccess, r.afterAccess = before, t.handoffs
					}
					r.loaded = append(r.loaded, v)
					t.Compute(200)
					t.Store(b, v+1)
				}) != nil {
					t.Compute(10)
				}
			},
			func(t *Thread) {
				t.Compute(120)
				t.Store(a, 7)
				t.Compute(150)
				t.Store(a, 9)
			},
		)
		if err != nil {
			t.Fatalf("quantum %d: %v", quantum, err)
		}
		r.run, r.final = capture(m, h), m.Mem.Load(b)
		return r
	}

	oracle, got := run(1), run(0)
	requireSameRun(t, "XBEGIN past the horizon: gate-point vs oracle", got.run, oracle.run)
	if !reflect.DeepEqual(got.loaded, oracle.loaded) || got.final != oracle.final {
		t.Fatalf("loads %v and result %d, oracle %v and %d", got.loaded, got.final, oracle.loaded, oracle.final)
	}
	if len(got.loaded) == 0 || got.loaded[0] != 7 {
		t.Fatalf("first transactional load read %v, want 7: thread 1's store at cycle 120 precedes it", got.loaded)
	}
	if len(got.loaded) < 2 {
		t.Fatalf("transaction never aborted (loads %v); the conflict is untested", got.loaded)
	}
	if got.atAccess != 0 || got.afterAccess != 1 {
		t.Fatalf("thread 0 handed off %d times before its first transactional access and %d after it, want 0 and 1",
			got.atAccess, got.afterAccess)
	}
}

// runSpinBodies runs one body per thread under a sample-collecting
// handler and returns the captured run, the spin iterations applied
// without a gate pass, and Run's error.
func runSpinBodies(cfg Config, build func(m *Machine) []func(*Thread)) (quantumRun, uint64, error) {
	m := New(cfg)
	h := &collectHandler{}
	m.SetHandler(h)
	err := m.Run(build(m)...)
	var skipped uint64
	for _, th := range m.threads {
		skipped += th.spinSkipped
	}
	return capture(m, h), skipped, err
}

// spinPeriods are short enough that counter overflows land inside
// fast-forwarded sleeps.
func spinPeriods() pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = 211
	p[pmu.Loads] = 17
	p[pmu.Stores] = 5
	return p
}

// spinLockBodies has every thread take one test-and-test-and-set lock
// iters times, waiting in SpinWhileNonzero while it is held.
func spinLockBodies(iters int) func(m *Machine) []func(*Thread) {
	return func(m *Machine) []func(*Thread) {
		lock, data := m.Mem.AllocLines(1), m.Mem.AllocLines(1)
		body := func(t *Thread) {
			for i := 0; i < iters; i++ {
				for !t.AtomicCAS(lock, 0, 1) {
					t.SpinWhileNonzero(lock, 2)
				}
				t.Add(data, 1)
				t.Compute(60 + 7*t.ID)
				t.Store(lock, 0)
				t.Compute(5)
			}
		}
		bodies := make([]func(*Thread), m.Config().Threads)
		for i := range bodies {
			bodies[i] = body
		}
		return bodies
	}
}

// TestCrashOnlyPlanKeepsSpinFastForward: the pmem tier injects a
// crash-only plan's faults, so the threads get no injector and a
// spinning program still fast-forwards its waits.
func TestCrashOnlyPlanKeepsSpinFastForward(t *testing.T) {
	plan, err := faults.ParsePlan("crash-mid-log")
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Threads: 5, Seed: 9, Faults: plan, Pmem: pmem.Config{Enabled: true}})
	m.SetHandler(&collectHandler{})
	if err := m.Run(spinLockBodies(40)(m)...); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m.PublishMetrics(reg)
	var skipped uint64
	for _, mv := range reg.Snapshot(true) {
		if mv.Name == "machine.spin.skipped" {
			skipped = mv.Value
		}
	}
	if skipped == 0 {
		t.Error("machine.spin.skipped = 0 under a crash-only plan: spin waits lost their fast-forward")
	}
}

// neverReleased: thread 0 takes the lock and exits holding it; every
// other thread waits for it forever.
func neverReleased(m *Machine) []func(*Thread) {
	lock := m.Mem.AllocLines(1)
	bodies := make([]func(*Thread), m.Config().Threads)
	bodies[0] = func(t *Thread) { t.AtomicCAS(lock, 0, 1) }
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(t *Thread) {
			t.Compute(30 * t.ID)
			for !t.AtomicCAS(lock, 0, 1) {
				t.SpinWhileNonzero(lock, 3)
			}
		}
	}
	return bodies
}

// TestSpinWaitEquivalence holds the spin-wait fast-forward to the
// literal loop: sleeping spinners, woken by the lock holder's writes or
// by their own budget (PMU headroom, quantum, MaxCycles), must
// reproduce the per-op oracle, which runs every iteration through a
// gate.
func TestSpinWaitEquivalence(t *testing.T) {
	run := func(t *testing.T, cfg Config, build func(m *Machine) []func(*Thread)) (quantumRun, uint64) {
		t.Helper()
		r, skipped, err := runSpinBodies(cfg, build)
		if err != nil {
			t.Fatalf("quantum %d: %v", cfg.Quantum, err)
		}
		return r, skipped
	}
	cfg := func(quantum int, skew uint64) Config {
		return Config{Threads: 5, Seed: 9, Periods: spinPeriods(), StartSkew: skew, Quantum: quantum}
	}

	t.Run("contended", func(t *testing.T) {
		oracle, skipped := run(t, cfg(1, 512), spinLockBodies(30))
		if oracle.spins == 0 || skipped != 0 {
			t.Fatalf("oracle: %d spins, %d skipped; want spins, none skipped", oracle.spins, skipped)
		}
		old := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(old)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, skipped := run(t, cfg(0, 512), spinLockBodies(30))
			requireSameRun(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, oracle)
			if skipped == 0 {
				t.Fatal("no spin iteration was fast-forwarded; the comparison is vacuous")
			}
		}
	})

	t.Run("ties", func(t *testing.T) {
		oracle, _ := run(t, cfg(1, 0), spinLockBodies(20))
		got, _ := run(t, cfg(0, 0), spinLockBodies(20))
		requireSameRun(t, "StartSkew 0", got, oracle)
	})

	// Thirteen waiters on one lock, HTMBench's default of 14 threads:
	// each release wakes every sleeper on the line at once, and each
	// rises from the tail of the live set to its own place.
	t.Run("14threads", func(t *testing.T) {
		c := cfg(1, 512)
		c.Threads = 14
		oracle, _ := run(t, c, spinLockBodies(20))
		for _, q := range []int{7, 0} {
			c.Quantum = q
			got, skipped := run(t, c, spinLockBodies(20))
			requireSameRun(t, fmt.Sprintf("quantum %d", q), got, oracle)
			if q == 0 && skipped == 0 {
				t.Fatal("no spin iteration was fast-forwarded; the comparison is vacuous")
			}
		}
	})

	// One spinner and one writer, both starting at cycle 0: the
	// spinner's first load misses (60 cycles) and its loads then sit at
	// 62 + 6i; the writer releases the lock at cycle x. Sweeping x puts
	// the write before, between and exactly at iteration positions,
	// with the writer on either side of the ID tie-break, and with and
	// without PMU overflows inside the sleep.
	t.Run("writer-at-iteration-position", func(t *testing.T) {
		var woken uint64
		for _, periods := range []pmu.Periods{{}, spinPeriods()} {
			for _, writer := range []int{0, 1} {
				for x := 50; x <= 100; x++ {
					build := func(m *Machine) []func(*Thread) {
						lock := m.Mem.AllocLines(1)
						m.Mem.Store(lock, 1)
						bodies := make([]func(*Thread), 2)
						bodies[writer] = func(t *Thread) {
							t.Compute(x)
							t.Store(lock, 0)
						}
						bodies[1-writer] = func(t *Thread) { t.SpinWhileNonzero(lock, 2) }
						return bodies
					}
					c := Config{Threads: 2, Seed: 1, Periods: periods}
					c.Quantum = 1
					oracle, _ := run(t, c, build)
					c.Quantum = 0
					got, skipped := run(t, c, build)
					requireSameRun(t, fmt.Sprintf("writer %d at %d, periods %v", writer, x, periods), got, oracle)
					woken += skipped
				}
			}
		}
		if woken == 0 {
			t.Fatal("no sleeping spinner was woken; the sweep is vacuous")
		}
	})

	// Without sampling the MaxCycles bound ends the last sleeps.
	t.Run("never-released-under-MaxCycles", func(t *testing.T) {
		for _, periods := range []pmu.Periods{{}, spinPeriods()} {
			c := Config{Threads: 4, Seed: 2, Periods: periods, StartSkew: 100, MaxCycles: 40_000}
			var errs [2]error
			var runs [2]quantumRun
			var skipped uint64
			for i, q := range []int{1, 0} {
				c.Quantum = q
				runs[i], skipped, errs[i] = runSpinBodies(c, neverReleased)
				if errs[i] == nil || !strings.Contains(errs[i].Error(), "MaxCycles") {
					t.Fatalf("quantum %d: err = %v, want the livelock error", q, errs[i])
				}
			}
			if skipped == 0 {
				t.Fatal("no spin iteration was fast-forwarded; the comparison is vacuous")
			}
			if errs[0].Error() != errs[1].Error() {
				t.Fatalf("periods %v: livelock errors differ:\noracle: %v\ngot:    %v", periods, errs[0], errs[1])
			}
			requireSameRun(t, fmt.Sprintf("livelock, periods %v", periods), runs[1], runs[0])
		}
	})

	// Waiters on a lock nobody releases spin forever; the run must
	// still stop at the cancellation, posted from the fifth sample.
	t.Run("cancel", func(t *testing.T) {
		for _, q := range []int{1, 0} {
			ctx, cancel := context.WithCancel(context.Background())
			var p pmu.Periods
			p[pmu.Loads] = 50
			m := New(Config{Threads: 3, Seed: 1, Periods: p, Quantum: q, Context: ctx})
			m.SetHandler(&cancelingHandler{n: 5, cancel: cancel})
			err := m.Run(neverReleased(m)...)
			cancel()
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("quantum %d: err = %v, want ErrCanceled", q, err)
			}
			if q == 0 && m.threads[1].spinSkipped+m.threads[2].spinSkipped == 0 {
				t.Fatal("no waiter slept; cancelling sleepers is untested")
			}
		}
	})
}

// cancelingHandler cancels the run at its n-th sample.
type cancelingHandler struct {
	n      int
	cancel context.CancelFunc
}

func (h *cancelingHandler) HandleSample(*Sample) {
	if h.n--; h.n == 0 {
		h.cancel()
	}
}

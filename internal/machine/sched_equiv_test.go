package machine

// Equivalence of the gate-point scheduler with the per-op oracle
// (Quantum=1, a baton handoff to the smallest pending (clock, ID) after
// every operation): both must produce byte-identical schedules — same
// sample stream, same clocks, same ground truth, same canonical
// interleavings — for any GOMAXPROCS, including the horizon edge
// cases: threads tied at the same minimum clock, and a thread exiting
// while it holds the minimum.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"txsampler/internal/pmu"
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
	if got.interleavings != want.interleavings {
		t.Fatalf("%s: %d interleavings vs %d", label, got.interleavings, want.interleavings)
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

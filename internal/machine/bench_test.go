package machine

// Micro-benchmarks of the simulator itself: scheduler throughput when
// every operation passes a gate, transactional operation cost, and
// sampling overhead — the numbers that bound how large a workload the
// harness can run. Throughput benchmarks report ops/sec (higher is
// better) alongside ns/op so benchdiff can gate on either direction.

import (
	"fmt"
	"testing"

	"txsampler/internal/mem"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// benchOps drives threads through b.N total steps, split evenly across
// threads — op issues the i-th step of a thread — and reports the
// operations executed per second and scheduler handoffs per operation.
func benchOps(b *testing.B, cfg Config, op func(m *Machine, steps int) func(t *Thread, i int)) {
	b.ReportAllocs()
	perThread := b.N/cfg.Threads + 1
	m := New(cfg)
	step := op(m, perThread)
	b.ResetTimer()
	err := m.RunAll(func(t *Thread) {
		for i := 0; i < perThread; i++ {
			step(t, i)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	var ops float64
	var handoffs uint64
	for _, t := range m.threads {
		ops += float64(t.opCount)
		handoffs += t.handoffs
	}
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/sec")
	b.ReportMetric(float64(handoffs)/ops, "handoffs/op")
}

// private issues thread-private Compute operations, which never reach
// a gate.
func private(*Machine, int) func(*Thread, int) {
	return func(t *Thread, _ int) { t.Compute(1) }
}

// gated alternates Load and Store on one line every thread shares, so
// every operation passes a gate.
func gated(m *Machine, _ int) func(*Thread, int) {
	a := m.Mem.AllocLines(1)
	return func(t *Thread, i int) {
		if i%2 == 0 {
			t.Load(a)
		} else {
			t.Store(a, mem.Word(i))
		}
	}
}

// spin has thread 0 hold one lock word for the whole run — taking it at
// its first step, releasing it at its last, with gated Load and Store on
// its own line in between — while every other thread waits for it in
// SpinWhileNonzero: one holder and a crowd of spinners.
func spin(m *Machine, steps int) func(*Thread, int) {
	lock, own := m.Mem.AllocLines(1), m.Mem.AllocLines(1)
	return func(t *Thread, i int) {
		switch {
		case t.ID != 0:
			if i == 0 {
				t.SpinWhileNonzero(lock, 2)
			}
		case i == steps-1:
			t.Store(lock, 0)
		case i == 0:
			t.Store(lock, 1)
		case i%2 == 0:
			t.Load(own)
		default:
			t.Store(own, mem.Word(i))
		}
	}
}

func BenchmarkOpThroughputSingleThread(b *testing.B) {
	benchOps(b, Config{Threads: 1}, private)
}

func BenchmarkOpThroughput8Threads(b *testing.B) {
	benchOps(b, Config{Threads: 8}, private)
}

// BenchmarkSchedulerOpsPerSec is the headline scheduler-throughput
// number: simulated operations per second in native mode (no PMU, no
// handler) when every operation passes a gate, so the gate check and
// the baton handoffs it forces are the only cost besides the cache
// model. handoffs/op shows how often the baton moved. 14threads is
// HTMBench's default thread count; its threads move in lockstep, so
// every handoff sinks the holder past all 13 others in the ordered live
// set: the worst case of the sink. 8threads-spin is one lock holder and
// seven spin-waiters, whose loads would each pass a gate were they not
// asleep on the lock line.
func BenchmarkSchedulerOpsPerSec(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 14} {
		b.Run(fmt.Sprintf("%dthreads", n), func(b *testing.B) {
			benchOps(b, Config{Threads: n}, gated)
		})
	}
	b.Run("8threads-spin", func(b *testing.B) {
		benchOps(b, Config{Threads: 8}, spin)
	})
}

// BenchmarkTelemetryOverhead bounds what the telemetry hooks cost the
// scheduler hot path on the gated workload. "off" is the shipping
// default — a nil tracer, one predictable branch per instrumentation
// site; "on" records every run slice in the ring, and is expected to
// stay within ~2x of "off".
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchOps(b, Config{Threads: 8}, gated)
	})
	b.Run("on", func(b *testing.B) {
		benchOps(b, Config{Threads: 8, Trace: telemetry.NewTracer(0)}, gated)
	})
}

func BenchmarkTransactionalIncrement(b *testing.B) {
	b.ReportAllocs()
	m := New(Config{Threads: 1})
	a := m.Mem.AllocWords(1)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		_ = m.RunAll(func(t *Thread) {
			for i := 0; i < b.N; i++ {
				t.Attempt(func() { t.Add(a, 1) })
			}
		})
		close(done)
	}()
	<-done
}

func BenchmarkSampledExecution(b *testing.B) {
	b.ReportAllocs()
	var p pmu.Periods
	p[pmu.Cycles] = 500
	m := New(Config{Threads: 1, Periods: p})
	m.SetHandler(&collectHandler{})
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		_ = m.RunAll(func(t *Thread) {
			for i := 0; i < b.N; i++ {
				t.Compute(10)
			}
		})
		close(done)
	}()
	<-done
}

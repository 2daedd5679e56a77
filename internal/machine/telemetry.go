package machine

// Telemetry instrumentation: the machine emits trace events for
// canonical run slices, transaction regions, and PMU interrupt
// deliveries, and publishes exact post-run counters into a metrics
// registry. Every emitted value is virtual (cycle clocks, cause
// codes), so traces and metrics are deterministic for a seed and
// invariant to the run quantum — run-slice boundaries follow the
// canonical order of gate passes, which no quantum moves (DESIGN.md
// §8).

import (
	"fmt"

	"txsampler/internal/htm"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// abortEventNames and pmiEventNames pre-format the trace names so hot
// paths emit constant strings instead of formatting.
var abortEventNames = func() [htm.NumCauses]string {
	var names [htm.NumCauses]string
	for c := range names {
		names[c] = "tx-abort:" + htm.Cause(c).String()
	}
	return names
}()

var pmiEventNames = func() [pmu.NumEvents]string {
	var names [pmu.NumEvents]string
	for e := range names {
		names[e] = "pmi:" + pmu.Event(e).String()
	}
	return names
}()

// Tracer returns the tracer the machine was configured with, or nil.
// Runtime libraries layered on the machine (e.g. internal/rtm) use it
// to put their own spans on the same virtual timeline.
func (m *Machine) Tracer() *telemetry.Tracer { return m.cfg.Trace }

// traceBatchSize is the per-thread trace-event buffer capacity: big
// enough to amortize the ring mutex across a quantum, small enough
// that flushes stay cache-resident.
const traceBatchSize = 256

// TraceEvent records ev on the machine's virtual timeline through the
// thread's local batch, flushing to the tracer ring when the batch
// fills (and at scheduler handoffs). Runtime libraries layered on the
// machine (e.g. internal/rtm) use it instead of Tracer().Emit so
// their spans ride the same amortized path. No-op when tracing is
// disabled.
func (t *Thread) TraceEvent(ev telemetry.Event) {
	if t.evBatch == nil {
		return
	}
	t.evBatch = append(t.evBatch, ev)
	if len(t.evBatch) == cap(t.evBatch) {
		t.flushTrace()
	}
}

// flushTrace drains the thread's trace batch into the tracer ring.
func (t *Thread) flushTrace() {
	if len(t.evBatch) > 0 {
		t.m.cfg.Trace.EmitBatch(t.evBatch)
		t.evBatch = t.evBatch[:0]
	}
}

// emitRunSlice records t's current run slice as ending at clock end;
// called at slice-ending gate passes and at thread completion.
func (t *Thread) emitRunSlice(end uint64) {
	t.TraceEvent(telemetry.Event{
		Kind: telemetry.KindRunSlice, TS: t.sliceStart, Dur: end - t.sliceStart, TID: int32(t.ID),
	})
}

// PublishMetrics writes the machine's exact post-run instrumentation
// into reg: ground-truth commit/abort counts by cause, PMU event and
// overflow totals, interrupt and sample delivery counts, the cycle
// totals, and the scheduler's canonical interleavings (run-slice
// boundaries). All of it is deterministic for a seed and invariant to
// the quantum except machine.sched.handoffs, a volatile gauge: the
// Quantum=1 oracle hands off after every operation. Call after Run; a
// nil registry is ignored.
func (m *Machine) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	var commits, interrupts, delivered, interleavings, handoffs uint64
	var aborts [htm.NumCauses]uint64
	var events, overflows [pmu.NumEvents]uint64
	for _, t := range m.threads {
		commits += t.commits
		interrupts += t.interrupts
		delivered += t.samplesDelivered
		interleavings += t.interleavings
		handoffs += t.handoffs
		for c := range aborts {
			aborts[c] += t.aborts[c]
		}
		for e := 0; e < pmu.NumEvents; e++ {
			events[e] += t.counters.Total(pmu.Event(e))
			overflows[e] += t.counters.Overflows(pmu.Event(e))
		}
	}
	reg.Counter("machine.commits").Add(commits)
	for c, n := range aborts {
		if htm.Cause(c) == htm.None {
			continue
		}
		reg.Counter("machine.aborts." + htm.Cause(c).String()).Add(n)
	}
	reg.Counter("machine.interrupts").Add(interrupts)
	reg.Counter("machine.samples.delivered").Add(delivered)
	for e := 0; e < pmu.NumEvents; e++ {
		if m.cfg.Periods[e] == 0 {
			continue
		}
		name := pmu.Event(e).String()
		reg.Counter(fmt.Sprintf("machine.pmu.%s.events", name)).Add(events[e])
		reg.Counter(fmt.Sprintf("machine.pmu.%s.overflows", name)).Add(overflows[e])
	}
	reg.Gauge("machine.cycles.elapsed", false).Set(m.Elapsed())
	reg.Gauge("machine.cycles.total", false).Set(m.TotalCycles())
	reg.Counter("machine.sched.interleavings").Add(interleavings)
	reg.Gauge("machine.sched.handoffs", true).Set(handoffs)
}

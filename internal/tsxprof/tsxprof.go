// Package tsxprof implements a record-and-replay HTM profiler in the
// style of TSXProf (Liu et al., PACT'15) — the paper's main prior-work
// comparison (§9). The record phase instruments every transaction
// instance through the RTM library's event hook, logging a timestamped
// event per begin/commit/abort/fallback; the replay phase re-executes
// the program with per-memory-access instrumentation (an STM-style
// approximation of the hardware execution) to recover the detail the
// record phase lacks.
//
// The comparison experiment measures what the paper argues:
//
//   - the record phase's trace grows with the number of attempted
//     transactions and the abort rate, whereas TxSampler's state is
//     proportional to distinct calling contexts;
//   - the replay pass costs a multiple of native time (the paper cites
//     ~3x), whereas TxSampler is one-pass;
//   - replay is an STM approximation: its abort behaviour differs from
//     the native HTM execution it tries to explain.
package tsxprof

import (
	"fmt"
	"io"

	"txsampler"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/rtm"
)

// Event is one record-phase log entry (16 bytes on disk: the paper's
// timestamp-counter logging).
type Event struct {
	TID   int
	Kind  rtm.EventKind
	Cycle uint64
}

// EventBytes is the serialized size of one event.
const EventBytes = 16

// eventCost is the instrumentation cycles charged per event: two
// rdtsc reads plus a buffered store.
const eventCost = 40

// Recorder is the record-phase instrumentation: an rtm.EventSink that
// appends one entry per event to an in-memory trace, charging the
// instrumented thread eventCost cycles per event.
type Recorder struct {
	Events []Event
}

// TxEvent implements rtm.EventSink.
func (r *Recorder) TxEvent(t *machine.Thread, kind rtm.EventKind) {
	r.Events = append(r.Events, Event{TID: t.ID, Kind: kind, Cycle: t.Clock()})
}

// PerEventCost implements rtm.EventSink.
func (r *Recorder) PerEventCost() int { return eventCost }

// TraceBytes returns the record phase's log size.
func (r *Recorder) TraceBytes() int { return len(r.Events) * EventBytes }

// Result compares one workload under TSXProf-style profiling against
// its native execution.
type Result struct {
	Workload string
	Threads  int

	NativeCycles uint64
	// RecordCycles is the makespan with the record-phase
	// instrumentation attached.
	RecordCycles uint64
	// ReplayCycles is the makespan of the replay pass (per-access
	// instrumentation, no HTM detail lost).
	ReplayCycles uint64

	Events     int
	TraceBytes int
}

// RecordOverhead returns the record phase's relative slowdown.
func (r *Result) RecordOverhead() float64 {
	return float64(r.RecordCycles)/float64(r.NativeCycles) - 1
}

// ReplaySlowdown returns replay time over native time (the paper cites
// ~3x for TSXProf's replay).
func (r *Result) ReplaySlowdown() float64 {
	return float64(r.ReplayCycles) / float64(r.NativeCycles)
}

// runOnce runs w natively on the benchmark machine under the hybrid
// policy, adding memPenalty cycles to every load and store, with sink
// (if any) instrumenting the workload's global lock, and returns the
// makespan.
func runOnce(w *htmbench.Workload, threads int, seed int64, hybrid machine.HybridPolicy, memPenalty uint64, sink rtm.EventSink) (uint64, error) {
	m := machine.New(machine.Config{
		Threads:    threads,
		Cache:      txsampler.BenchCache(),
		Seed:       seed,
		StartSkew:  1024,
		MemPenalty: memPenalty,
		Hybrid:     hybrid,
	})
	inst := w.BuildInstance(m, nil)
	if sink != nil {
		inst.Lock.Sink = sink // instrument the workload's global lock
	}
	if err := m.Run(inst.Bodies...); err != nil {
		return 0, err
	}
	return m.Elapsed(), nil
}

// Profile runs the three phases for one workload under the hybrid
// policy: native, record (instrumented transactions), and replay
// (instrumented memory accesses, modelling the STM re-execution).
func Profile(name string, threads int, seed int64, hybrid machine.HybridPolicy) (*Result, error) {
	w, err := htmbench.Get(name)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		threads = w.DefaultThreads
	}
	res := &Result{Workload: name, Threads: threads}

	if res.NativeCycles, err = runOnce(w, threads, seed, hybrid, 0, nil); err != nil {
		return nil, err
	}
	rec := &Recorder{}
	if res.RecordCycles, err = runOnce(w, threads, seed, hybrid, 0, rec); err != nil {
		return nil, err
	}
	res.Events = len(rec.Events)
	res.TraceBytes = rec.TraceBytes()
	// Replay: per-access instrumentation of every load and store (the
	// heavyweight read/write-set maintenance the paper describes).
	if res.ReplayCycles, err = runOnce(w, threads, seed, hybrid, 60, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// Compare prints the TxSampler-vs-TSXProf table for a set of
// workloads under the hybrid policy; txOverhead supplies TxSampler's
// measured overhead per workload (from the Figure 5 harness, under
// the same policy).
func Compare(w io.Writer, names []string, threads int, seed int64, hybrid machine.HybridPolicy, txOverhead func(name string) (float64, error)) error {
	fmt.Fprintf(w, "=== TSXProf-style record-and-replay vs TxSampler (%d threads) ===\n", threads)
	for _, name := range names {
		res, err := Profile(name, threads, seed, hybrid)
		if err != nil {
			return err
		}
		tx, err := txOverhead(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-24s txsampler=%5.1f%%  record=%5.1f%%  replay=%4.2fx  trace=%6.1f KiB (%d events)\n",
			res.Workload, 100*tx, 100*res.RecordOverhead(), res.ReplaySlowdown(),
			float64(res.TraceBytes)/1024, res.Events)
	}
	fmt.Fprintln(w, "  (TxSampler: one pass, context-proportional state; record-and-replay: two passes, attempt-proportional trace.")
	fmt.Fprintln(w, "   Negative record overhead on hot workloads is real perturbation: per-event instrumentation decontends retries.)")
	return nil
}

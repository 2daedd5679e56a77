package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind classifies a trace event; it selects the process track the
// event lands on in the Chrome trace and whether it is a span or an
// instant.
type Kind uint8

const (
	// KindRunSlice is one canonical run slice of a thread on the
	// scheduler track: it ends at the thread's next gate pass after
	// another thread passed a gate, or at thread exit. Gate passes
	// happen in the canonical order under every quantum, so slice
	// boundaries are quantum-invariant.
	KindRunSlice Kind = iota
	// KindTx is a committed transaction region (outermost XBEGIN to
	// XEND).
	KindTx
	// KindTxAbort is an aborted transaction region; Arg carries the
	// abort cause code.
	KindTxAbort
	// KindSpan is a generic named span on a machine thread track
	// (e.g. the RTM fallback path holding the global lock).
	KindSpan
	// KindInterrupt is a PMU interrupt delivery instant; Arg carries
	// the overflowed event code.
	KindInterrupt
	// KindPhase is a frontend/analyzer phase span on the analyzer
	// track, timestamped by the tracer's own virtual sequence clock.
	KindPhase
	// KindInstant is a generic named instant on a machine thread
	// track.
	KindInstant
)

// Trace process IDs: one Chrome "process" per subsystem so spans on
// the same simulated thread never overlap within one track.
const (
	PIDMachine   = 0 // transaction regions, interrupts, generic spans
	PIDScheduler = 1 // canonical run slices
	PIDAnalyzer  = 2 // frontend/analyzer phases
)

// Event is one trace entry. TS and Dur are virtual: simulated cycle
// clocks for machine events, the tracer's sequence clock for phases.
// Name must be a constant or interned string — emission never
// formats.
type Event struct {
	TS   uint64
	Dur  uint64
	TID  int32
	Kind Kind
	Arg  uint64
	Name string
}

// DefaultTraceCapacity is the ring size NewTracer(0) allocates. At 64
// bytes an event, the default ring holds ~16 MiB; when it fills, the
// oldest events are overwritten (and counted as dropped) so tracing
// never grows without bound — the same discipline the paper applies
// to collector state.
const DefaultTraceCapacity = 1 << 18

// Tracer records events into a fixed ring buffer. The zero value is
// not usable; construct with NewTracer. A nil Tracer drops every
// event at the cost of one branch.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	head    int // next overwrite position once the ring is full
	full    bool
	dropped uint64
	seq     uint64            // virtual clock for phase events
	open    map[string]uint64 // open phase name -> start seq
}

// NewTracer returns a tracer with the given ring capacity (0 selects
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity), open: make(map[string]uint64)}
}

// Enabled reports whether events are being recorded. Instrumentation
// sites guard formatting or any other per-event work behind it.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event, overwriting the oldest when the ring is
// full. Safe for concurrent use; allocation-free.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(ev)
	t.mu.Unlock()
}

// EmitBatch records a batch of events under one lock acquisition —
// the bulk path instrumented threads use to amortize the ring mutex
// across a whole quantum of buffered events.
func (t *Tracer) EmitBatch(evs []Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for _, ev := range evs {
		t.emitLocked(ev)
	}
	t.mu.Unlock()
}

func (t *Tracer) emitLocked(ev Event) {
	if !t.full && len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.full = true
		t.buf[t.head] = ev
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.dropped++
	}
}

// BeginPhase opens a named phase span on the analyzer track,
// timestamped with the tracer's virtual sequence clock (deterministic,
// unlike wall time). Phases may nest under distinct names.
func (t *Tracer) BeginPhase(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.open[name] = t.seq
	t.mu.Unlock()
}

// EndPhase closes a phase opened by BeginPhase and records its span.
// Unmatched ends are ignored.
func (t *Tracer) EndPhase(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start, ok := t.open[name]
	if ok {
		delete(t.open, name)
		t.seq++
		end := t.seq
		t.mu.Unlock()
		t.Emit(Event{TS: start, Dur: end - start, Kind: KindPhase, Name: name})
		return
	}
	t.mu.Unlock()
}

// Dropped returns how many events were overwritten by ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Events returns a chronological copy of the buffered events (oldest
// first, in emission order).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.head:]...)
		out = append(out, t.buf[:t.head]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	Dur   *uint64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int32             `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// pid returns the Chrome process track for an event kind.
func (k Kind) pid() int {
	switch k {
	case KindRunSlice:
		return PIDScheduler
	case KindPhase:
		return PIDAnalyzer
	}
	return PIDMachine
}

func (e Event) chromeName() string {
	if e.Name != "" {
		return e.Name
	}
	switch e.Kind {
	case KindRunSlice:
		return "run"
	case KindTx:
		return "tx"
	case KindTxAbort:
		return "tx-abort"
	case KindInterrupt:
		return "pmi"
	}
	return "event"
}

// WriteChromeTrace exports the buffered events as Chrome trace-event
// JSON (the format chrome://tracing and Perfetto load). Events are
// stably ordered by (timestamp, track, thread) before encoding, so
// the output is a pure function of the buffered event multiset —
// byte-identical no matter how per-thread batches interleaved in the
// ring.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if ap, bp := a.Kind.pid(), b.Kind.pid(); ap != bp {
			return ap < bp
		}
		return a.TID < b.TID
	})
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: make([]chromeEvent, 0, len(events)+8)}
	// Name the process tracks so the viewer groups them sensibly.
	for _, meta := range []struct {
		pid  int
		name string
	}{{PIDMachine, "machine"}, {PIDScheduler, "scheduler"}, {PIDAnalyzer, "analyzer"}} {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: meta.pid,
			Args: map[string]string{"name": meta.name},
		})
	}
	for _, e := range events {
		ce := chromeEvent{Name: e.chromeName(), TS: e.TS, PID: e.Kind.pid(), TID: e.TID}
		switch e.Kind {
		case KindInterrupt, KindInstant:
			ce.Phase = "i"
			ce.Scope = "t"
		default:
			ce.Phase = "X"
			dur := e.Dur
			ce.Dur = &dur
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. The spans of one operation share its root's op number.
type span struct {
	name       string
	parent     int // index of the parent span; -1 for an operation's root
	op, lane   int // lane is the Chrome thread row
	start, end time.Duration
	// hidden is time inside this span spent in calls too frequent to
	// record one by one (the per-sample handler); hiddenName labels it.
	hidden     time.Duration
	hiddenName string
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// root opens the root span of a new operation on a lane.
func (r *recorder) root(name string, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	r.spans = append(r.spans, span{name: name, parent: -1, op: r.ops, lane: lane, start: now, end: -1})
	return len(r.spans) - 1
}

// child opens a span inside parent.
func (r *recorder) child(name string, parent int) int {
	if r == nil || parent < 0 {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	r.spans = append(r.spans, span{name: name, parent: parent, op: p.op, lane: p.lane, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// hide books d of span id's time to the named aggregated calls.
func (r *recorder) hide(id int, name string, d time.Duration) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].hidden += d
	r.spans[id].hiddenName = name
	r.mu.Unlock()
}

func (s span) dur() time.Duration { return s.end - s.start }

// opName names the root span of a measured operation. Other roots are
// layer calls made outside any operation.
const opName = "op"

// layerTimes is the self time per span name: a span's duration minus
// the part its child spans cover. An operation's own self time is the
// part no layer span covers.
type layerTimes struct {
	self                map[string]time.Duration
	rootTotal, rootSelf time.Duration
}

func (r *recorder) layerTimes() layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			covered[s.parent] += s.dur()
		}
	}
	lt := layerTimes{self: make(map[string]time.Duration)}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		self := s.dur() - covered[i] - s.hidden
		if s.hidden > 0 {
			lt.self[s.hiddenName] += s.hidden
		}
		if s.parent < 0 && s.name == opName {
			lt.rootTotal += s.dur()
			lt.rootSelf += self
			continue
		}
		lt.self[s.name] += self
	}
	return lt
}

// writeTraceFile writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func writeTraceFile(path string, r *recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		args := map[string]any{"op": s.op}
		if s.hidden > 0 {
			args[s.hiddenName+"_ms"] = ms(s.hidden)
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: s.lane, Args: args})
	}
	r.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

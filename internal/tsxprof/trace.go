package tsxprof

import (
	"encoding/json"
	"fmt"
	"io"

	"txsampler/internal/htmbench"
	"txsampler/internal/rtm"
)

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto): "X" complete events carry a duration,
// "i" instant events mark points in time.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	TS    uint64 `json:"ts"`
	Dur   uint64 `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	Scope string `json:"s,omitempty"`
}

// WriteChromeTrace converts a recorded event log to the Chrome
// trace-event JSON format: each critical section becomes a duration
// slice on its thread's track (named by its outcome), each abort an
// instant marker — the visualization TEP built for Blue Gene/Q traces
// (§9.2) on today's standard trace viewer.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var out []chromeEvent
	open := map[int]uint64{} // tid -> begin cycle
	for _, e := range events {
		switch e.Kind {
		case rtm.EventBegin:
			open[e.TID] = e.Cycle
		case rtm.EventAbort:
			out = append(out, chromeEvent{
				Name: "abort", Phase: "i", TS: e.Cycle, TID: e.TID, Scope: "t",
			})
		case rtm.EventCommit, rtm.EventFallback:
			name := "commit"
			if e.Kind == rtm.EventFallback {
				name = "fallback"
			}
			start, ok := open[e.TID]
			if !ok {
				start = e.Cycle
			}
			delete(open, e.TID)
			out = append(out, chromeEvent{
				Name: name, Phase: "X", TS: start, Dur: e.Cycle - start, TID: e.TID,
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("tsxprof: %w", err)
	}
	return nil
}

// RecordTrace runs a workload under record-phase instrumentation and
// returns the event log, for export with WriteChromeTrace.
func RecordTrace(name string, threads int, seed int64) ([]Event, error) {
	w, err := htmbench.Get(name)
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		threads = w.DefaultThreads
	}
	rec := &Recorder{}
	if _, err := runOnce(w, threads, seed, 0, rec); err != nil {
		return nil, err
	}
	return rec.Events, nil
}

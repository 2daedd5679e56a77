package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// modeState returns a sampled state word and LBR abort evidence that
// rtm.ModeOf classifies as mode. The htm modes carry the rolled-back
// pre-XBEGIN word, as a real PMU handler sees it.
func modeState(mode rtm.Mode) (state uint32, inTx bool) {
	if mode == rtm.ModeNone {
		return 0, false
	}
	bits := [rtm.NumModes]uint32{
		rtm.ModeHTM: rtm.InOverhead, rtm.ModeSTM: rtm.InSTM, rtm.ModeLock: rtm.InFallback,
		rtm.ModeWaiting: rtm.InLockWaiting, rtm.ModeOverhead: rtm.InOverhead, rtm.ModeFlush: rtm.InFlush,
	}
	state = rtm.InCS | bits[mode.Base()]
	if mode.Base() != mode {
		state |= rtm.InElision
	}
	return state, mode.Base() == rtm.ModeHTM
}

// modeFrames is the calling context of the all-modes profile's sample
// in mode: the elided modes share one elided lock site, so the
// verdict table renders too.
func modeFrames(mode rtm.Mode) []lbr.IP {
	if mode.Base() != mode {
		return []lbr.IP{{Fn: "main"}, {Fn: rtm.ElisionFramePrefix + "counter"}, {Fn: mode.String()}}
	}
	return []lbr.IP{{Fn: "main"}, {Fn: mode.String()}}
}

// allModesReport profiles one cycles sample in every execution mode,
// each under its own calling context.
func allModesReport(t testing.TB) *analyzer.Report {
	t.Helper()
	c := core.NewCollector(1, pmu.DefaultPeriods())
	for md := rtm.ModeNone; md < rtm.NumModes; md++ {
		state, inTx := modeState(md)
		frames := modeFrames(md)
		s := &machine.Sample{Event: pmu.Cycles, State: state, Stack: frames, IP: frames[len(frames)-1]}
		if inTx {
			s.LBR = []lbr.Entry{{Kind: lbr.KindAbort, Abort: true, InTSX: true}}
		}
		c.HandleSample(s)
	}
	return analyzer.Analyze("test/all-modes", c)
}

// TestEveryModeRoundTrip feeds one cycles sample per execution mode
// and follows it through the collector's bucket, the report's shares
// and stanzas, the diff rows, and the database round trip.
func TestEveryModeRoundTrip(t *testing.T) {
	r := allModesReport(t)
	for md := rtm.ModeNone; md < rtm.NumModes; md++ {
		if got := r.Totals.Time[md]; got != 1 {
			t.Errorf("%v: Totals.Time = %d, want 1 (%v)", md, got, r.Totals.Time)
		}
		// An in-transaction sample's context continues under
		// begin_in_tx with the precise IP.
		path := modeFrames(md)
		if _, inTx := modeState(md); inTx {
			path = append(path, core.BeginInTx, path[len(path)-1])
		}
		n := r.Merged.Root
		for _, f := range path {
			if n = n.Lookup(f); n == nil {
				t.Fatalf("%v: context %v missing", md, path)
			}
		}
		if n.Data.Time[md] != 1 || n.Data.W() != 1 {
			t.Errorf("%v: context holds %v, want its one sample in Time[%d]", md, n.Data.Time, md)
		}
	}
	if w, tt := r.Totals.W(), r.Totals.T(); w != uint64(rtm.NumModes) || tt != w-1 {
		t.Errorf("W=%d T=%d, want %d and %d", w, tt, rtm.NumModes, rtm.NumModes-1)
	}
	sh := r.TimeShares()
	var sum float64
	for md := rtm.ModeNone; md < rtm.NumModes; md++ {
		if md.Base() == md {
			sum += sh[md]
		}
	}
	if math.Abs(sum-1) > 1e-12 || sh[rtm.ModeNone] != 0 {
		t.Errorf("base-mode shares sum to %v (none %v), want 1: %v", sum, sh[rtm.ModeNone], sh)
	}

	var report bytes.Buffer
	r.Render(&report)
	for _, want := range []string{"hybrid: stm=", "pmem: persist=", "hottest instrumented (stm) contexts:",
		"hottest persistence-stall (flush) contexts:", "lock elision (per site):"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report omits %q:\n%s", want, &report)
		}
	}

	var buf bytes.Buffer
	if err := FromReport(r).Write(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := db.Report()
	var again bytes.Buffer
	loaded.Render(&again)
	if again.String() != report.String() {
		t.Errorf("report changed across the database round trip:\n%s\nvs\n%s", &again, &report)
	}

	var diff bytes.Buffer
	analyzer.RenderDiff(&diff, r, loaded, 5)
	for _, md := range []rtm.Mode{rtm.ModeFlush, rtm.ModeElidedHTM, rtm.ModeElidedSTM, rtm.ModeElidedLock} {
		label := md.String()
		if md == rtm.ModeFlush {
			label = "T_persist"
		}
		if !strings.Contains(diff.String(), "  "+label+" share ") {
			t.Errorf("diff omits the %s row:\n%s", label, &diff)
		}
	}
}

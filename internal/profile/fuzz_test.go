package profile

import (
	"bytes"
	"strings"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// FuzzRead hardens the profile-database parser against arbitrary
// input: it must never panic, and anything it accepts must survive a
// re-encode/re-decode round trip.
func FuzzRead(f *testing.F) {
	c := core.NewCollector(1, pmu.DefaultPeriods(), 0)
	c.HandleSample(&machine.Sample{
		Event: pmu.Cycles, State: rtm.InCS,
		Stack: []lbr.IP{{Fn: "main"}, {Fn: "f", Site: "3"}},
		IP:    lbr.IP{Fn: "f", Site: "3"},
	})
	var seed bytes.Buffer
	if err := FromReport(analyzer.Analyze("seed", c)).Write(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	var all bytes.Buffer
	if err := FromReport(allModesReport(f)).Write(&all); err != nil {
		f.Fatal(err)
	}
	f.Add(all.String())
	f.Add(`{"version":1}`)
	f.Add(`{"version":1,"cct":{"fn":"x","children":[{"fn":"y"}]}}`)
	f.Add(`not json at all`)
	f.Add(`{"version":1,"per_thread":[{"tid":-1,"commits":18446744073709551615}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		db, err := Read(strings.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		// Accepted input: the report reconstruction and re-encoding
		// must not panic, and the round trip must stay stable.
		rep := db.Report()
		var buf bytes.Buffer
		if err := FromReport(rep).Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

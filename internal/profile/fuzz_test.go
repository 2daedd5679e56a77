package profile

import (
	"bytes"
	"crypto/sha256"
	"os"
	"strings"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/record"
	"txsampler/internal/rtm"
)

// framed wraps a JSON payload the way encode does: the current magic
// line, then one frame holding the payload's SHA-256 and the payload.
func framed(tb testing.TB, payload string) string {
	tb.Helper()
	sum := sha256.Sum256([]byte(payload))
	b, err := record.AppendFrame(record.Header(magic, FormatVersion), append(sum[:], payload...))
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// FuzzRead hardens the profile-database parser against arbitrary
// input: it must never panic, and anything it accepts must survive a
// re-encode/re-decode round trip. The seeds are framed databases, but
// for the headerless version-1 and the older-format (v3) file.
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
	f.Add(framed(f, `{"version":4}`))
	f.Add(framed(f, `{"version":4,"cct":{"fn":"x","children":[{"fn":"y"}]}}`))
	f.Add(framed(f, `not json at all`))
	f.Add(framed(f, `{"version":4,"per_thread":[{"tid":-1,"commits":18446744073709551615}]}`))
	f.Add(`{"version":1}`)
	v3, err := os.ReadFile("testdata/v3.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(v3))

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

package profile

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// FuzzRead hardens the database parser against arbitrary input. Each
// input is read twice: as a whole file, which exercises the magic
// line, the frame and the checksums, and as a body behind a valid
// frame and SHA-256, as an uploader computing its own checksums sends
// it. Only the second read lets a mutation reach the body parser: a
// mutated file fails its CRC32 or SHA-256 first. Neither read may
// panic, and anything accepted must re-encode to the same bytes and
// survive a round trip through its report. The seeds are files (the
// current format, headerless version 1, and framed versions 3 and 4)
// and bodies: valid ones, and the hostile shapes of hostileBodies,
// committed under testdata/fuzz/FuzzRead. The deep chain is left out
// as a seed: its 370 KB mutations stall the fuzzer in minimization,
// and TestDecodeRefusesHostileBodies covers it.
func FuzzRead(f *testing.F) {
	c := core.NewCollector(1, pmu.DefaultPeriods())
	c.HandleSample(&machine.Sample{
		Event: pmu.Cycles, State: rtm.InCS,
		Stack: []lbr.IP{{Fn: "main"}, {Fn: "f", Site: "3"}},
		IP:    lbr.IP{Fn: "f", Site: "3"},
	})
	seed := FromReport(analyzer.Analyze("seed", c))
	all := FromReport(allModesReport(f))
	for _, db := range []*Database{seed, all} {
		var file bytes.Buffer
		if err := db.Write(&file); err != nil {
			f.Fatal(err)
		}
		f.Add(file.String())
		f.Add(string(body(f, db)))
	}
	f.Add(string(body(f, &Database{Version: FormatVersion})))
	f.Add(string(body(f, &Database{Version: FormatVersion, Threads: math.MinInt64, Periods: [5]uint64{0, 127, 128, math.MaxUint64},
		PerThread: []Thread{{TID: -1, CommitSamples: math.MaxUint64}, {TID: math.MaxInt64}}})))
	f.Add(`{"version":1}`)
	for _, v := range []int{3, 4} {
		old, err := os.ReadFile(fmt.Sprintf("testdata/v%d.json", v))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(old))
	}

	f.Fuzz(func(t *testing.T, data string) {
		for _, in := range [][]byte{[]byte(data), framed(t, []byte(data))} {
			db, err := Decode(in)
			if err != nil {
				continue // rejected: fine
			}
			raw := dbBytes(t, db)
			again, err := Decode(raw)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(again, db) || !bytes.Equal(dbBytes(t, again), raw) {
				t.Fatal("re-encoding changed the database")
			}
			// The report reconstruction and its database must not
			// panic and must stay readable.
			if _, err := Decode(dbBytes(t, FromReport(db.Report()))); err != nil {
				t.Fatalf("report round trip failed: %v", err)
			}
		}
	})
}

package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"txsampler/internal/record"
)

// FuzzJournalReplay hardens the crash-recovery journal replay against
// arbitrary on-disk state: resuming from any byte sequence — torn or
// damaged frames, binary garbage, foreign formats, duplicate keys —
// must never panic, a refused journal must be left byte-identical, and
// a journal that resumes must still accept appends and survive a
// second resume with the appended entry intact (the crash-safety
// contract).
func FuzzJournalReplay(f *testing.F) {
	framed := func(entries ...string) []byte {
		b := record.Header(journalMagic, journalVersion)
		for _, e := range entries {
			b, _ = record.AppendFrame(b, []byte(e))
		}
		return b
	}
	two := framed(`{"key":"s1","status":"started"}`, `{"key":"s2","status":"done"}`)
	f.Add([]byte(""))
	f.Add(framed(`{"key":"s1","status":"done","artifact":"a.pb"}`))
	f.Add(framed(`{"key":"s1","status":"started"}`, `{"key":"s1","status":"done"}`))
	f.Add(two[:len(two)-5])                                                   // torn tail
	f.Add(framed("not json"))                                                 // refused
	f.Add(framed(`{"key":""}`))                                               // empty key: refused
	f.Add(append(framed(`{"key":"s1"}`), 0x00, 0xff, 0xfe))                   // garbage tail
	f.Add([]byte(`{"key":"s1","status":"done"}` + "\n" + `{"key":"s2","sta`)) // JSONL: refused

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true)
		if err != nil {
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused journal rewritten (%v): %d bytes -> %d", rerr, len(data), len(after))
			}
			return
		}
		replayed := j.Len()
		// The journal must stay appendable after replaying arbitrary
		// state: a fresh entry lands and wins for its key.
		if err := j.Record(Entry{Key: "fuzz-probe", Status: StatusDone}); err != nil {
			t.Fatalf("journal not appendable after replay: %v", err)
		}
		j.Close()
		again, err := OpenJournal(path, true)
		if err != nil {
			t.Fatalf("journal unreadable after clean append: %v", err)
		}
		defer again.Close()
		if e, ok := again.State("fuzz-probe"); !ok || e.Status != StatusDone {
			t.Fatalf("appended entry lost across resume: %+v ok=%v", e, ok)
		}
		// Replay is idempotent: the second resume sees every key the
		// first one did, plus the probe.
		if got := again.Len(); got != replayed+1 && got != replayed {
			// replayed+1 normally; == replayed only if the fuzzer
			// already journaled a "fuzz-probe" key.
			t.Fatalf("resume changed state count: first %d, second %d", replayed, got)
		}
	})
}

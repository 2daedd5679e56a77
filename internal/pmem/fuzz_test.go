package pmem

import (
	"testing"

	"txsampler/internal/mem"
)

// FuzzRecover feeds the undo-log recovery decoder arbitrary bytes —
// torn tails, bit flips, duplicated entries, garbage — and asserts the
// decoder's total-function contract: never panic, never store outside
// line-aligned words, never report a log Clean when parsing stopped
// early, and stay idempotent under replay.
func FuzzRecover(f *testing.F) {
	var valid []byte
	valid = appendUndo(valid, 1, testFrame(0x1000, 5))
	valid = appendCommit(valid, 1)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                         // torn commit record
	f.Add(valid[:undoFrameSize/2])                      // torn undo record
	f.Add(append(append([]byte{}, valid...), valid...)) // duplicated
	flipped := append([]byte(nil), valid...)
	flipped[3] ^= 0x40 // bit flip in the txid
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{'U'})
	f.Add([]byte{'C', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	var uncommitted []byte
	uncommitted = appendUndo(uncommitted, 2, testFrame(0x2000, 9))
	f.Add(uncommitted)
	// A checksummed, uncommitted frame naming a line far past the
	// address space: replaying it must not reach the image.
	f.Add(appendUndo(nil, 3, testFrame(1<<50, 1)))

	f.Fuzz(func(t *testing.T, log []byte) {
		img := mem.NewMemory()
		empty := img.Fingerprint()
		rec := Recover(log, img) // must not panic for any input
		if rec.RolledBack > rec.Entries {
			t.Fatalf("rolled back %d of %d parsed entries", rec.RolledBack, rec.Entries)
		}
		if rec.Clean() {
			// A clean verdict promises the whole log parsed as committed
			// transactions: byte count must account for every record and
			// nothing may have been replayed.
			if rec.RolledBack != 0 {
				t.Fatalf("Clean with %d rollbacks", rec.RolledBack)
			}
			want := rec.Entries*undoFrameSize + rec.Commits*commitFrameSize
			if want != len(log) {
				t.Fatalf("Clean but parsed %d bytes of %d", want, len(log))
			}
			if img.Fingerprint() != empty {
				t.Fatal("Clean recovery mutated the image")
			}
		}
		// Idempotence: replaying the same log over the recovered image
		// must be a fixed point (absolute pre-images).
		first := img.Fingerprint()
		Recover(log, img)
		if img.Fingerprint() != first {
			t.Fatal("recovery replay is not idempotent")
		}
	})
}

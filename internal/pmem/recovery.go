package pmem

import (
	"encoding/binary"
	"hash/crc32"

	"txsampler/internal/mem"
)

// Recovery summarizes one recovery replay over an undo log.
type Recovery struct {
	// Entries is the number of complete, checksummed undo records
	// parsed; Commits the number of commit records.
	Entries int
	Commits int
	// RolledBack counts the undo records replayed into the image:
	// every entry after the last commit record, newest first.
	RolledBack int
	// Torn reports that the log ended inside a record — the signature
	// of a crash mid-append.
	Torn bool
	// Corrupt reports a checksum mismatch, an unknown record tag, or a
	// malformed line address (unaligned, or past mem.Limit). Parsing
	// stops at the first corrupt frame; everything before it is still
	// replayed.
	Corrupt bool
}

// Clean reports a recovery that found a fully parsed log whose tail is
// durably committed: nothing torn, nothing corrupt, nothing to roll
// back. Any corruption or rollback makes the recovery non-clean.
func (r Recovery) Clean() bool { return !r.Torn && !r.Corrupt && r.RolledBack == 0 }

// Recover replays an undo log against the persist-domain image: undo
// records written after the last commit record belong to a transaction
// that did not commit durably, and their cache-line pre-images are
// restored newest-first. The decoder is total — torn tails, bit flips,
// duplicated entries, and arbitrary garbage terminate parsing with the
// matching flag set, never a panic — and replay is idempotent: records
// store absolute pre-images, so recovering twice yields the same image.
func Recover(log []byte, img *mem.Memory) Recovery {
	var rec Recovery
	var pending []undoFrame // undo records since the last commit record
	off := 0
	for off < len(log) {
		switch log[off] {
		case tagUndo:
			if off+undoFrameSize > len(log) {
				rec.Torn = true
				return finishRecover(rec, pending, img)
			}
			frame := log[off : off+undoFrameSize]
			sum := binary.LittleEndian.Uint32(frame[undoFrameSize-4:])
			if crc32.ChecksumIEEE(frame[:undoFrameSize-4]) != sum {
				rec.Corrupt = true
				return finishRecover(rec, pending, img)
			}
			line := mem.Addr(binary.LittleEndian.Uint64(frame[9:17]))
			if line.Line() != line || line >= mem.Limit {
				// A checksummed frame naming a non-line-aligned address,
				// or one past the address space, was corrupted before it
				// was summed; replaying it would scribble on unaligned
				// words or panic in the image.
				rec.Corrupt = true
				return finishRecover(rec, pending, img)
			}
			var f undoFrame
			f.line = line
			for i := 0; i < mem.WordsPerLine; i++ {
				f.vals[i] = binary.LittleEndian.Uint64(frame[17+8*i:])
			}
			pending = append(pending, f)
			rec.Entries++
			off += undoFrameSize
		case tagCommit:
			if off+commitFrameSize > len(log) {
				rec.Torn = true
				return finishRecover(rec, pending, img)
			}
			frame := log[off : off+commitFrameSize]
			sum := binary.LittleEndian.Uint32(frame[commitFrameSize-4:])
			if crc32.ChecksumIEEE(frame[:commitFrameSize-4]) != sum {
				rec.Corrupt = true
				return finishRecover(rec, pending, img)
			}
			rec.Commits++
			pending = pending[:0]
			off += commitFrameSize
		default:
			rec.Corrupt = true
			return finishRecover(rec, pending, img)
		}
	}
	return finishRecover(rec, pending, img)
}

// finishRecover rolls back the uncommitted tail newest-first.
func finishRecover(rec Recovery, pending []undoFrame, img *mem.Memory) Recovery {
	for i := len(pending) - 1; i >= 0; i-- {
		f := pending[i]
		for j, w := range f.vals {
			img.Store(f.line.Offset(j), w)
		}
		rec.RolledBack++
	}
	return rec
}

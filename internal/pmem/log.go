package pmem

import (
	"encoding/binary"
	"hash/crc32"

	"txsampler/internal/mem"
)

// Undo-log wire format. Like the framed profile format, every record is
// CRC-framed so recovery can tell a torn tail from a complete log: a
// crash mid-append leaves a partial frame whose checksum cannot match.
//
// Two record kinds, both little-endian with a trailing IEEE CRC32 over
// the preceding frame bytes:
//
//	undo   'U' | txid u64 | line addr u64 | 8 pre-image words | crc u32
//	commit 'C' | txid u64 | crc u32
//
// An undo record carries the full cache-line pre-image captured before
// the transaction's first store to that line (eager per-line undo
// logging, as in the go-redis-pmem transaction package). A commit
// record marks every preceding undo record as belonging to a durably
// committed transaction; entries after the last commit record belong
// to an incomplete transaction and are rolled back by Recover.
const (
	tagUndo   = 'U'
	tagCommit = 'C'

	// undoFrameSize is 1 tag + 8 txid + 8 addr + 64 line bytes + 4 crc.
	undoFrameSize = 1 + 8 + 8 + mem.LineSize + 4
	// commitFrameSize is 1 tag + 8 txid + 4 crc.
	commitFrameSize = 1 + 8 + 4
)

// undoFrame is the in-memory form of one undo record: the pre-image of
// one tracked cache line at the transaction's first store to it.
type undoFrame struct {
	line mem.Addr
	vals [mem.WordsPerLine]mem.Word
}

// appendUndo appends one CRC-framed undo record to dst.
func appendUndo(dst []byte, txid uint64, f undoFrame) []byte {
	start := len(dst)
	dst = append(dst, tagUndo)
	dst = binary.LittleEndian.AppendUint64(dst, txid)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.line))
	for _, w := range f.vals {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendCommit appends one CRC-framed commit record to dst.
func appendCommit(dst []byte, txid uint64) []byte {
	start := len(dst)
	dst = append(dst, tagCommit)
	dst = binary.LittleEndian.AppendUint64(dst, txid)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

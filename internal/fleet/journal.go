// Package fleet turns the one-shot profiler into a continuous-
// profiling backend: a long-running daemon (cmd/txsamplerd) ingests
// framed profile shards over HTTP from many nodes and merges them
// into time-windowed aggregate calling-context trees, and a resilient
// client (Uploader) ships shards with deadlines, bounded backoff,
// idempotency keys, and a per-node circuit breaker.
//
// Acknowledged means folded: ingest decodes a shard once, fsyncs it
// to an append-only journal and folds the decoded database into its
// window before it answers 200, so every acknowledged shard is
// already in /profile and /top. A kill -9 at any point replays the
// journal to byte-identical aggregates.
package fleet

import (
	"encoding/binary"
	"errors"
	"math"
)

// JournalName is the shard journal's filename inside the daemon's
// state directory.
const JournalName = "shards.jsonl"

// journalMagic and journalVersion name the journal's record format.
const journalMagic, journalVersion = "txshards", 1

// encodeShard lays sh out as one journal frame's payload: key and
// node, each behind its uvarint length, the window as a uvarint, then
// the profile bytes verbatim. The profile comes last so its own frame
// ends where the journal's does: a torn journal frame never holds an
// intact frame, which would make replay refuse the journal instead of
// truncating the tear.
func encodeShard(sh Shard) []byte {
	b := make([]byte, 0, 3*binary.MaxVarintLen64+len(sh.Key)+len(sh.Node)+len(sh.Payload))
	b = append(binary.AppendUvarint(b, uint64(len(sh.Key))), sh.Key...)
	b = append(binary.AppendUvarint(b, uint64(len(sh.Node))), sh.Node...)
	return append(binary.AppendUvarint(b, uint64(sh.Window)), sh.Payload...)
}

var errBadShard = errors.New("fleet: malformed journal record")

// decodeShard inverts encodeShard. The payload aliases b.
func decodeShard(b []byte) (Shard, error) {
	var s [2]string
	for i := range s {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return Shard{}, errBadShard
		}
		s[i], b = string(b[k:k+int(n)]), b[k+int(n):]
	}
	w, k := binary.Uvarint(b)
	if k <= 0 || w > math.MaxInt || s[0] == "" {
		return Shard{}, errBadShard
	}
	return Shard{Key: s[0], Node: s[1], Window: int(w), Payload: b[k:]}, nil
}

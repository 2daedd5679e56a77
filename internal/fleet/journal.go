// Package fleet turns the one-shot profiler into a continuous-
// profiling backend: a long-running daemon (cmd/txsamplerd) ingests
// framed profile shards over HTTP from many nodes and merges them
// into time-windowed aggregate calling-context trees, and a resilient
// client (Uploader) ships shards with deadlines, bounded backoff,
// idempotency keys, and a per-node circuit breaker.
//
// The failure story is the design center, per the hybrid-TM
// literature's lesson that the degraded path dominates behaviour
// under contention: every accepted shard is fsynced to an append-only
// journal before it is acknowledged (kill -9 at any point replays to
// byte-identical aggregates), admission degrades along an explicit
// ladder — merge-on-arrival, then journal-now-merge-later, then load
// shedding with 429 + Retry-After — and every degradation step is
// counted in telemetry.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"txsampler/internal/campaign"
)

// JournalName is the shard journal's filename inside the daemon's
// state directory.
const JournalName = "shards.jsonl"

// Record is one journaled shard: its idempotency key, origin node,
// aggregation window, and the framed profile payload (base64 in
// JSON). The payload carries its own CRC32+SHA-256 header, so replay
// re-verifies integrity end to end.
type Record struct {
	Key     string `json:"key"`
	Node    string `json:"node,omitempty"`
	Window  int    `json:"window"`
	Payload []byte `json:"payload"`
}

// ShardLog is the daemon's append-only shard journal, built on the
// campaign package's torn-tail-truncating JSONL machinery. Appends
// are fsynced before the ingest API acknowledges, so an acknowledged
// shard is never lost; a crash can at worst tear the final line,
// which OpenShardLog truncates away on restart.
type ShardLog struct {
	log *campaign.AppendLog
}

// OpenShardLog opens the journal at path, creating it if missing, and
// replays every intact record through replay in append order. A line
// that does not decode is the torn tail of a crashed append — it is
// truncated so the log ends on a clean boundary.
func OpenShardLog(path string, replay func(rec Record) error) (*ShardLog, error) {
	log, err := campaign.OpenAppendLog(path, true, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Key == "" {
			return fmt.Errorf("fleet: journal record without key")
		}
		if replay != nil {
			return replay(rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ShardLog{log: log}, nil
}

// Append journals one record and fsyncs it, returning the byte offset
// the record starts at (the catch-up reader's cursor unit).
func (l *ShardLog) Append(rec Record) (offset int64, err error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return l.log.Size(), err
	}
	return l.log.Append(line)
}

// Size returns the journal's current intact byte length.
func (l *ShardLog) Size() int64 { return l.log.Size() }

// Path returns the journal file path.
func (l *ShardLog) Path() string { return l.log.Path() }

// Close closes the journal file.
func (l *ShardLog) Close() error { return l.log.Close() }

// ReadRange re-reads the records in the byte range [from, to) of the
// journal at path. The daemon's journal-now-merge-later catch-up uses
// it to merge deferred shards from disk instead of holding their
// payloads in memory; both bounds must lie on record boundaries
// (offsets returned by Append and Size).
func ReadRange(path string, from, to int64) ([]Record, error) {
	if to <= from {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, to-from)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("fleet: journal range [%d,%d): %w", from, to, err)
	}
	var recs []Record
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("fleet: journal range [%d,%d) does not end on a record boundary", from, to)
		}
		var rec Record
		if err := json.Unmarshal(buf[:nl], &rec); err != nil {
			return nil, fmt.Errorf("fleet: journal record at offset %d: %w", to-int64(len(buf)), err)
		}
		recs = append(recs, rec)
		buf = buf[nl+1:]
	}
	return recs, nil
}

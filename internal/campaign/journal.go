package campaign

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"sync"

	"txsampler/internal/record"
)

// Shard statuses as journaled.
const (
	StatusStarted = "started" // attempt began; if it is the last word, the process died mid-shard
	StatusDone    = "done"    // artifact written and synced
	StatusFailed  = "failed"  // attempt ended in an error (may be retried)
)

// journalMagic and journalVersion name the journal's record format.
const journalMagic, journalVersion = "txcampaign", 1

// Entry is one journal record, stored as JSON in one frame. The
// journal is append-only: a shard's current state is its last entry.
// No wall-clock timestamps — journals from identical campaigns stay
// byte-identical.
type Entry struct {
	Key      string `json:"key"`
	Status   string `json:"status"`
	Artifact string `json:"artifact,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Journal is the append-only manifest of a campaign, a record.Log of
// fsynced frames: a crash can at worst tear the final one.
type Journal struct {
	mu    sync.Mutex
	log   *record.Log
	state map[string]Entry
}

// OpenJournal opens (resume=true) or recreates (resume=false) the
// journal at path. On resume, existing entries are replayed into the
// in-memory state — last entry per key wins — and a torn final frame
// is truncated. Any other damage, an entry that does not decode, and a
// journal of another format (earlier versions' JSONL included) fail
// the open and leave the file as it was.
func OpenJournal(path string, resume bool) (*Journal, error) {
	if !resume {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	j := &Journal{state: make(map[string]Entry)}
	log, err := record.Open(path, journalMagic, journalVersion, func(p []byte) error {
		var e Entry
		if err := json.Unmarshal(p, &e); err != nil {
			return err
		}
		if e.Key == "" {
			return errors.New("campaign: journal entry without key")
		}
		j.state[e.Key] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// State returns the last journaled entry for key.
func (j *Journal) State(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.state[key]
	return e, ok
}

// Len returns the number of distinct journaled shards.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.state)
}

// Record appends one entry and fsyncs it. Append errors are returned
// but the in-memory state is updated regardless, so a campaign on a
// full disk still runs to completion and reports correctly.
func (j *Journal) Record(e Entry) error {
	p, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state[e.Key] = e
	return j.log.Append(p)
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

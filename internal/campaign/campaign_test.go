package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"txsampler/internal/record"
	"txsampler/internal/telemetry"
)

func TestJournalReplayLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Entry{Key: "a", Status: StatusStarted, Attempt: 1})
	j.Record(Entry{Key: "a", Status: StatusFailed, Attempt: 1, Err: "boom"})
	j.Record(Entry{Key: "a", Status: StatusStarted, Attempt: 2})
	j.Record(Entry{Key: "a", Status: StatusDone, Artifact: "a.json", Attempt: 2})
	j.Record(Entry{Key: "b", Status: StatusStarted, Attempt: 1})
	j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("replayed %d keys", j2.Len())
	}
	if e, ok := j2.State("a"); !ok || e.Status != StatusDone || e.Attempt != 2 || e.Artifact != "a.json" {
		t.Fatalf("a = %+v", e)
	}
	if e, ok := j2.State("b"); !ok || e.Status != StatusStarted {
		t.Fatalf("b = %+v", e)
	}
}

// journalOf writes a journal of one entry per key and returns its path
// and the offset each entry's frame starts at, with the journal's
// length last.
func journalOf(t *testing.T, keys ...string) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var offs []int64
	for _, k := range append(keys, "") {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, st.Size())
		if k != "" {
			if err := j.Record(Entry{Key: k, Status: StatusDone}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return path, offs
}

// TestJournalTornTailTruncated simulates crashes mid-append: the final
// frame cut at every byte offset, a zero-filled tail, and a crash while
// the journal's magic line was being written. Each resumes with every
// earlier entry, and a new append lands on a frame boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	path, offs := journalOf(t, "a", "b")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type image struct {
		data []byte
		keys int
	}
	var images []image
	for cut := offs[1] + 1; cut < offs[2]; cut++ {
		images = append(images, image{whole[:cut], 1})
	}
	images = append(images,
		image{append(bytes.Clone(whole), make([]byte, 512)...), 2},
		image{whole[:offs[0]/2], 0})
	for _, im := range images {
		if err := os.WriteFile(path, im.data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true)
		if err != nil {
			t.Fatalf("%d-byte image: %v", len(im.data), err)
		}
		if j.Len() != im.keys {
			t.Fatalf("%d-byte image replayed %d keys, want %d", len(im.data), j.Len(), im.keys)
		}
		j.Record(Entry{Key: "c", Status: StatusDone})
		j.Close()
		j, err = OpenJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := j.State("c"); !ok || j.Len() != im.keys+1 {
			t.Fatalf("%d-byte image: entry appended after the truncation lost (%d keys)", len(im.data), j.Len())
		}
		j.Close()
	}
}

// TestJournalRefusesDamage: damage that is not a torn final append
// fails the resume with the journal byte-identical. A journal the
// earlier JSONL format wrote is refused the same way, so an upgraded
// binary never starts over on top of it.
func TestJournalRefusesDamage(t *testing.T) {
	path, offs := journalOf(t, "a", "b", "c")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zero := func(i int64) []byte {
		b := bytes.Clone(whole)
		b[i] = 0
		return b
	}
	for _, tc := range []struct {
		name  string
		image []byte
	}{
		{"byte inside record 2", zero((offs[1] + offs[2]) / 2)},
		{"record 2 length field", zero(offs[1])},
		{"JSONL journal", []byte(`{"key":"a","status":"done"}` + "\n" +
			`{"key":"b","status":"done"}` + "\n" + `{"key":"c","status":"done"}` + "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, true)
			if err == nil {
				j.Close()
				t.Fatalf("resume accepted the journal with %d keys", j.Len())
			}
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("resume: %v, want record.ErrCorrupt", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, tc.image) {
				t.Fatalf("refused journal rewritten: %d bytes -> %d", len(tc.image), len(after))
			}
		})
	}
}

// fresh returns a new journal in a temp dir.
func fresh(t *testing.T, resume bool) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.jsonl")
	j, err := OpenJournal(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

func shard(name string, run func(ctx context.Context) error) Shard {
	return Shard{Workload: name, Threads: 2, Seed: 1, ConfigHash: "h", Artifact: name + ".json", Run: run}
}

func TestRunSkipsVerifiedDoneShards(t *testing.T) {
	j, path := fresh(t, false)
	ran := 0
	ok := func(ctx context.Context) error { ran++; return nil }
	shards := []Shard{shard("w1", ok), shard("w2", ok)}
	rep, err := Run(shards, j, Options{})
	if err != nil || rep.Ran != 2 || rep.Skipped != 0 {
		t.Fatalf("first run: %+v err=%v", rep, err)
	}
	j.Close()

	// Resume: everything journaled done and verification passes.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	verified := []string{}
	rep, err = Run(shards, j2, Options{Verify: func(a string) error { verified = append(verified, a); return nil }})
	if err != nil || rep.Ran != 0 || rep.Skipped != 2 || ran != 2 {
		t.Fatalf("resume: %+v err=%v ran=%d", rep, err, ran)
	}
	if len(verified) != 2 {
		t.Fatalf("verified %v", verified)
	}
}

func TestRunRerunsFailedAndBadArtifacts(t *testing.T) {
	j, path := fresh(t, false)
	j.Record(Entry{Key: shard("bad-artifact", nil).Key(), Status: StatusDone, Artifact: "bad-artifact.json"})
	j.Record(Entry{Key: shard("failed", nil).Key(), Status: StatusFailed, Err: "old failure"})
	j.Record(Entry{Key: shard("interrupted", nil).Key(), Status: StatusStarted})
	j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ran := map[string]int{}
	mk := func(name string) Shard {
		return shard(name, func(ctx context.Context) error { ran[name]++; return nil })
	}
	rep, err := Run([]Shard{mk("bad-artifact"), mk("failed"), mk("interrupted")}, j2, Options{
		Verify: func(a string) error { return errors.New("torn") },
	})
	if err != nil {
		t.Fatal(err)
	}
	// All three are re-run: done-but-bad-artifact, failed, and
	// started-but-never-finished (killed mid-shard).
	if rep.Ran != 3 || rep.Rerun != 3 || rep.Skipped != 0 {
		t.Fatalf("report %+v", rep)
	}
	for _, n := range []string{"bad-artifact", "failed", "interrupted"} {
		if ran[n] != 1 {
			t.Fatalf("ran=%v", ran)
		}
	}
}

// journalEntries replays every entry of the journal at path, in
// append order.
func journalEntries(t *testing.T, path string) []Entry {
	t.Helper()
	var es []Entry
	log, err := record.Open(path, journalMagic, journalVersion, func(p []byte) error {
		var e Entry
		if err := json.Unmarshal(p, &e); err != nil {
			return err
		}
		es = append(es, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	return es
}

// TestRunRetriesWithBackoffThenFails: a shard that fails twice succeeds
// on its third attempt, one that always fails gives up after three,
// and each waits the campaign's jitter-free 100ms then 200ms between
// attempts. The journal records every attempt's start and outcome.
func TestRunRetriesWithBackoffThenFails(t *testing.T) {
	j, path := fresh(t, false)
	attempts := 0
	flaky := shard("flaky", func(ctx context.Context) error {
		attempts++
		if attempts < 3 {
			return fmt.Errorf("transient %d", attempts)
		}
		return nil
	})
	hopeless := shard("hopeless", func(ctx context.Context) error { return errors.New("always") })
	reg := telemetry.NewRegistry()
	start := time.Now()
	rep, err := Run([]Shard{flaky, hopeless}, j, Options{Retries: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*(100+200)*time.Millisecond {
		t.Errorf("campaign took %v, want at least 2 x (100ms + 200ms) of backoff", elapsed)
	}
	if rep.Ran != 1 || rep.Failed != 1 || rep.Retries != 4 {
		t.Fatalf("report %+v", rep)
	}
	var want []Entry
	for a := 1; a <= 3; a++ {
		want = append(want, Entry{Key: flaky.Key(), Status: StatusStarted, Artifact: flaky.Artifact, Attempt: a})
		if a < 3 {
			want = append(want, Entry{Key: flaky.Key(), Status: StatusFailed, Artifact: flaky.Artifact,
				Attempt: a, Err: fmt.Sprintf("transient %d", a)})
		}
	}
	want = append(want, Entry{Key: flaky.Key(), Status: StatusDone, Artifact: flaky.Artifact, Attempt: 3})
	for a := 1; a <= 3; a++ {
		want = append(want,
			Entry{Key: hopeless.Key(), Status: StatusStarted, Artifact: hopeless.Artifact, Attempt: a},
			Entry{Key: hopeless.Key(), Status: StatusFailed, Artifact: hopeless.Artifact, Attempt: a, Err: "always"})
	}
	if got := journalEntries(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal:\n got %+v\nwant %+v", got, want)
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0].Err, "always") {
		t.Fatalf("failures %+v", rep.Failures)
	}
	if got := reg.Counter("campaign.retries").Value(); got != 4 {
		t.Fatalf("retry counter = %d", got)
	}
	if got := reg.Counter("campaign.shards_failed").Value(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
}

// TestRunPanicIsolation: a panicking shard is recorded as failed and
// the campaign continues to the remaining shards.
func TestRunPanicIsolation(t *testing.T) {
	j, _ := fresh(t, false)
	ran := false
	rep, err := Run([]Shard{
		shard("boom", func(ctx context.Context) error { panic("kaboom") }),
		shard("fine", func(ctx context.Context) error { ran = true; return nil }),
	}, j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("panic aborted the campaign")
	}
	if rep.Ran != 1 || rep.Failed != 1 || !strings.Contains(rep.Failures[0].Err, "kaboom") {
		t.Fatalf("report %+v", rep)
	}
	if e, _ := j.State(shard("boom", nil).Key()); e.Status != StatusFailed {
		t.Fatalf("journal for panicked shard: %+v", e)
	}
}

func TestRunShardDeadline(t *testing.T) {
	j, _ := fresh(t, false)
	slow := shard("slow", func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	start := time.Now()
	rep, err := Run([]Shard{slow}, j, Options{Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("report %+v", rep)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not fire")
	}
}

func TestRunCampaignCancellation(t *testing.T) {
	j, _ := fresh(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	var order []string
	mk := func(name string, f func()) Shard {
		return shard(name, func(c context.Context) error {
			order = append(order, name)
			if f != nil {
				f()
			}
			return c.Err()
		})
	}
	rep, err := Run([]Shard{mk("first", cancel), mk("second", nil), mk("third", nil)}, j, Options{Context: ctx, Retries: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !rep.Canceled {
		t.Fatal("report not marked canceled")
	}
	// The first shard observed the cancel; the rest never started.
	if len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
	// Retries are not burned on cancellation.
	if rep.Retries != 0 {
		t.Fatalf("retries = %d", rep.Retries)
	}
}

func TestRunParallelWorkers(t *testing.T) {
	j, _ := fresh(t, false)
	var shards []Shard
	for i := 0; i < 8; i++ {
		shards = append(shards, Shard{
			Workload: fmt.Sprintf("w%d", i), Threads: 1, Seed: int64(i), ConfigHash: "h",
			Artifact: fmt.Sprintf("w%d.json", i),
			Run:      func(ctx context.Context) error { return nil },
		})
	}
	rep, err := Run(shards, j, Options{Workers: 4})
	if err != nil || rep.Ran != 8 {
		t.Fatalf("report %+v err=%v", rep, err)
	}
	for _, s := range shards {
		if e, _ := j.State(s.Key()); e.Status != StatusDone {
			t.Fatalf("%s: %+v", s.Key(), e)
		}
	}
}

// TestMap: results come back in input order for any worker count; of
// two failing indices the lower one's error wins; and once an f has
// failed or the context is canceled, no later index starts.
func TestMap(t *testing.T) {
	const n = 7
	for _, workers := range []int{1, 2, n + 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := context.Background()
			sq, err := Map(ctx, workers, n, func(i int) (int, error) { return i * i, nil })
			if err != nil || len(sq) != n {
				t.Fatalf("Map = %v, %v", sq, err)
			}
			for i, v := range sq {
				if v != i*i {
					t.Fatalf("result %d = %d, want %d (out of order)", i, v, i*i)
				}
			}

			// Indices 2 and 5 fail: index 2's error wins, and the
			// results before it come back.
			var calls atomic.Int64
			got, err := Map(ctx, workers, n, func(i int) (int, error) {
				calls.Add(1)
				if i == 2 || i == 5 {
					return 0, fmt.Errorf("index %d failed", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "index 2 failed" {
				t.Fatalf("err = %v, want index 2's", err)
			}
			if !reflect.DeepEqual(got, []int{0, 1}) {
				t.Fatalf("results before the failure = %v, want [0 1]", got)
			}
			// With one worker nothing runs beside the failing index, so
			// no index after it may start. (With more, indices claimed
			// before the failure was recorded may still run.)
			if c := calls.Load(); workers == 1 && c != 3 {
				t.Fatalf("%d calls with a failure at index 2, want 3", c)
			}

			// A canceled context starts nothing.
			canceled, cancel := context.WithCancel(ctx)
			cancel()
			calls.Store(0)
			got, err = Map(canceled, workers, n, func(i int) (int, error) { calls.Add(1); return i, nil })
			if !errors.Is(err, context.Canceled) || len(got) != 0 || calls.Load() != 0 {
				t.Fatalf("pre-canceled: %v, %v after %d calls", got, err, calls.Load())
			}

			// Canceled mid-run: each worker holds one index, those below
			// the last waiting for the cancel the last one sends, so
			// exactly workers indices start.
			if workers >= n {
				return
			}
			mid, cancel := context.WithCancel(ctx)
			defer cancel()
			calls.Store(0)
			got, err = Map(mid, workers, n, func(i int) (int, error) {
				calls.Add(1)
				if i == workers-1 {
					cancel()
				} else {
					<-mid.Done()
				}
				return i, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
			if c := calls.Load(); c != int64(workers) || len(got) != workers {
				t.Fatalf("mid-run cancel: %d calls, %d results, want %d", c, len(got), workers)
			}
		})
	}
}

func TestHashStable(t *testing.T) {
	if Hash("a", "b") != Hash("a", "b") {
		t.Fatal("hash not stable")
	}
	if Hash("a", "b") == Hash("ab") || Hash("a", "b") == Hash("b", "a") {
		t.Fatal("hash ignores part boundaries or order")
	}
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/profile"
	"txsampler/internal/record"
	"txsampler/internal/rtm"
	"txsampler/internal/telemetry"
)

// shardBytes builds a small, valid framed database whose contents
// are a function of program and weight, so tests can craft distinct
// shards cheaply.
func shardBytes(t testing.TB, program string, tid int, weight uint64) []byte {
	t.Helper()
	var leaf core.Metrics
	leaf.Time[rtm.ModeNone] = 6 * weight
	leaf.Time[rtm.ModeHTM] = 4 * weight
	leaf.AbortWeight[htm.Conflict] = weight
	leaf.AbortCount[htm.Conflict] = 1
	leaf.FalseSharing = weight / 2
	db := &profile.Database{
		Version: profile.FormatVersion,
		Program: program,
		Threads: 2,
		Periods: [5]uint64{2000000, 20011, 20011, 8009, 8009},
		Totals:  leaf,
		PerThread: []profile.Thread{
			{TID: tid, CommitSamples: weight, AbortSamples: 1},
		},
		Root: &profile.Node{
			Fn: "<root>",
			Children: []*profile.Node{
				{Fn: "main." + strings.ReplaceAll(program, "/", "_"), Site: "L1", Metrics: leaf},
			},
		},
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// ingest POSTs one shard and returns the response (body consumed into
// the returned string).
func ingest(t *testing.T, url string, payload []byte, key string, window int) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(HeaderKey, key)
	}
	req.Header.Set(HeaderWindow, fmt.Sprint(window))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

func TestIngestAndQuery(t *testing.T) {
	_, ts := openTestServer(t, Config{Metrics: telemetry.NewRegistry()})
	for i := 0; i < 3; i++ {
		payload := shardBytes(t, "micro/low-abort", i, uint64(10*(i+1)))
		resp, body := ingest(t, ts.URL, payload, fmt.Sprintf("node-%d/shard", i), 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
		if st := resp.Header.Get(HeaderStatus); st != StatusMerged {
			t.Fatalf("ingest %d: status header %q", i, st)
		}
	}

	resp, body := get(t, ts.URL+"/profile?window=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	agg, err := profile.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("aggregate does not parse: %v", err)
	}
	// Conflict weights 10+20+30 sum commutatively.
	if got := agg.Totals.AbortWeight[htm.Conflict]; got != 60 {
		t.Errorf("aggregate conflict weight = %d, want 60", got)
	}
	if len(agg.PerThread) != 3 {
		t.Errorf("aggregate per-thread entries = %d, want 3", len(agg.PerThread))
	}
	if !strings.HasPrefix(agg.Program, "fleet/window-0[") {
		t.Errorf("aggregate program = %q", agg.Program)
	}

	resp, body = get(t, ts.URL+"/top?window=0&by=aborts&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "main.micro_low-abort") {
		t.Errorf("top output missing hot context:\n%s", body)
	}
	for _, by := range []string{"sharing", "time"} {
		resp, _ = get(t, ts.URL+"/top?window=0&by="+by)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("top by %s: status %d", by, resp.StatusCode)
		}
	}

	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	for _, want := range []string{`"shards_journaled": 3`, `"shards_merged": 3`, `"fleet.ingested"`, `"fleet.fold_ns"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("stats missing %q:\n%s", want, body)
		}
	}

	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	// Error paths.
	resp, _ = get(t, ts.URL+"/profile?window=7")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing window: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/profile?window=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/top?window=0&by=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad by: status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/ingest")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d", resp.StatusCode)
	}
}

func TestIngestIdempotency(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := openTestServer(t, Config{Metrics: reg})
	payload := shardBytes(t, "micro/low-abort", 0, 10)

	resp, _ := ingest(t, ts.URL, payload, "same-key", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: status %d", resp.StatusCode)
	}
	resp, _ = ingest(t, ts.URL, payload, "same-key", 0)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderStatus) != StatusDuplicate {
		t.Fatalf("retry: status %d header %q", resp.StatusCode, resp.Header.Get(HeaderStatus))
	}
	// No key: the payload hash is the key, so resending identical
	// bytes is also a duplicate.
	resp, _ = ingest(t, ts.URL, payload, "", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyless ingest: status %d", resp.StatusCode)
	}
	resp, _ = ingest(t, ts.URL, payload, "", 0)
	if resp.Header.Get(HeaderStatus) != StatusDuplicate {
		t.Fatalf("keyless retry not deduplicated (header %q)", resp.Header.Get(HeaderStatus))
	}

	_, body := get(t, ts.URL+"/profile?window=0")
	agg, err := profile.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct keys accepted (named + hash), each exactly once.
	if got := agg.Totals.AbortWeight[htm.Conflict]; got != 20 {
		t.Errorf("aggregate conflict weight = %d, want 20 (no double-count)", got)
	}
	if v := reg.Counter("fleet.duplicates").Value(); v != 2 {
		t.Errorf("duplicate counter = %d, want 2", v)
	}
	// The ingest stage histograms time each accepted shard once;
	// duplicates and rejections add nothing.
	if resp, _ := ingest(t, ts.URL, payload[:len(payload)/2], "", 0); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated shard: status %d", resp.StatusCode)
	}
	for _, name := range []string{"fleet.decode_ns", "fleet.append_ns", "fleet.fold_ns"} {
		if n := reg.Histogram(name).Count(); n != 2 {
			t.Errorf("%s count = %d, want 2", name, n)
		}
	}
}

// fetch GETs url and returns the body of a 200 response. It returns
// errors instead of failing the test, for use off the test goroutine.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, err
}

// TestAckedShardIsQueryable: a 200 means the shard is already in
// /profile and counted as folded in /stats. Two clients race each key,
// so one ack says accepted and the other duplicate; each queries right
// after its own ack, with no wait, and must find the shard folded.
func TestAckedShardIsQueryable(t *testing.T) {
	_, ts := openTestServer(t, Config{})
	up := &Uploader{BaseURL: ts.URL}
	// queryAfterAck uploads sh, then checks window 0's conflict weight
	// and the /stats counts. It returns the ack's status.
	queryAfterAck := func(sh Shard, weight, shards uint64) (string, error) {
		res, err := up.Upload(context.Background(), sh)
		if err != nil {
			return "", err
		}
		body, err := fetch(ts.URL + "/profile?window=0")
		if err != nil {
			return res.Status, err
		}
		agg, err := readDatabase(body)
		if err != nil {
			return res.Status, err
		}
		if got := agg.Totals.AbortWeight[htm.Conflict]; got != weight {
			return res.Status, fmt.Errorf("conflict weight %d, want %d", got, weight)
		}
		if body, err = fetch(ts.URL + "/stats"); err != nil {
			return res.Status, err
		}
		var st Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return res.Status, err
		}
		if st.Appended != shards || st.Merged != shards {
			return res.Status, fmt.Errorf("%d shards journaled and %d merged, want %d", st.Appended, st.Merged, shards)
		}
		return res.Status, nil
	}
	var weight uint64
	for i := 0; i < 10; i++ {
		weight += uint64(i + 1)
		sh := Shard{Key: fmt.Sprintf("shard-%d", i), Payload: shardBytes(t, "micro/low-abort", i, uint64(i+1))}
		statuses, errs := make([]string, 2), make([]error, 2)
		var wg sync.WaitGroup
		for c := range statuses {
			wg.Add(1)
			go func() {
				defer wg.Done()
				statuses[c], errs[c] = queryAfterAck(sh, weight, uint64(i+1))
			}()
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("shard-%d, right after the %q ack: %v", i, statuses[c], err)
			}
		}
		if slices.Sort(statuses); statuses[0] != StatusMerged || statuses[1] != StatusDuplicate {
			t.Fatalf("shard-%d acks %q, want one accepted and one duplicate", i, statuses)
		}
	}
}

// TestFailedAppendIsNotAcknowledged: an ingest whose journal append
// fails answers 500, folds nothing and records no key, so the retry
// against the reopened journal is accepted exactly once.
func TestFailedAppendIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	srv, ts := openTestServer(t, Config{Dir: dir, Metrics: reg})
	if resp, body := ingest(t, ts.URL, shardBytes(t, "micro/low-abort", 0, 3), "kept", 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	conflict := func(url string) uint64 {
		t.Helper()
		_, body := get(t, url+"/profile?window=0")
		agg, err := readDatabase(body)
		if err != nil {
			t.Fatal(err)
		}
		return agg.Totals.AbortWeight[htm.Conflict]
	}

	// Appends to a closed journal fail. Twice: the failed key must not
	// be recorded, or the second try would be acked as a duplicate.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	late := shardBytes(t, "micro/low-abort", 1, 5)
	for i := 0; i < 2; i++ {
		if resp, body := ingest(t, ts.URL, late, "late", 0); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("ingest into a closed journal: status %d: %s", resp.StatusCode, body)
		}
	}
	if got := conflict(ts.URL); got != 3 {
		t.Errorf("conflict weight %d after failed appends, want 3", got)
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(string(body), `"shards_journaled": 1,`) {
		t.Errorf("stats after failed appends:\n%s", body)
	}
	if n := reg.Counter("fleet.ingested").Value(); n != 1 {
		t.Errorf("fleet.ingested = %d, want 1", n)
	}
	if n := reg.Histogram("fleet.fold_ns").Count(); n != 1 {
		t.Errorf("fleet.fold_ns count = %d, want 1", n)
	}

	_, ts2 := openTestServer(t, Config{Dir: dir})
	for _, want := range []string{StatusMerged, StatusDuplicate} {
		if resp, body := ingest(t, ts2.URL, late, "late", 0); resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderStatus) != want {
			t.Fatalf("retry after reopen: status %d %q, want 200 %q: %s", resp.StatusCode, resp.Header.Get(HeaderStatus), want, body)
		}
	}
	if got := conflict(ts2.URL); got != 8 {
		t.Errorf("conflict weight %d after the retry, want 8", got)
	}
}

func TestIngestRejectsCorruptPayload(t *testing.T) {
	_, ts := openTestServer(t, Config{})
	payload := shardBytes(t, "micro/low-abort", 0, 10)

	// Flip a payload byte: the frame checksum catches it.
	corrupt := bytes.Clone(payload)
	corrupt[len(corrupt)-2] ^= 0xff
	resp, body := ingest(t, ts.URL, corrupt, "", 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt shard: status %d: %s", resp.StatusCode, body)
	}
	// Truncation (a reset mid-body that somehow reached us) too.
	resp, _ = ingest(t, ts.URL, payload[:len(payload)/2], "", 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated shard: status %d", resp.StatusCode)
	}
	resp, _ = ingest(t, ts.URL, []byte("not a profile"), "", 0)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage shard: status %d", resp.StatusCode)
	}
	// Bad window header.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(payload))
	req.Header.Set(HeaderWindow, "minus one")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window header: status %d", r2.StatusCode)
	}
	// A body over MaxShardBytes is too large, not malformed, and is
	// still a rejection.
	reg := telemetry.NewRegistry()
	_, small := openTestServer(t, Config{MaxShardBytes: int64(len(payload) - 1), Metrics: reg})
	resp, body = ingest(t, small.URL, payload, "", 0)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "request body too large") {
		t.Errorf("oversized shard: status %d: %s", resp.StatusCode, body)
	}
	if v := reg.Counter("fleet.rejected").Value(); v != 1 {
		t.Errorf("fleet.rejected = %d, want 1", v)
	}
}

func TestRetention(t *testing.T) {
	_, ts := openTestServer(t, Config{Retain: 2})
	for w := 0; w < 4; w++ {
		payload := shardBytes(t, "micro/low-abort", w, uint64(w+1))
		resp, _ := ingest(t, ts.URL, payload, fmt.Sprintf("w%d", w), w)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: status %d", w, resp.StatusCode)
		}
	}
	for w, want := range map[int]int{0: http.StatusGone, 1: http.StatusGone, 2: http.StatusOK, 3: http.StatusOK} {
		resp, _ := get(t, fmt.Sprintf("%s/profile?window=%d", ts.URL, w))
		if resp.StatusCode != want {
			t.Errorf("window %d: status %d, want %d", w, resp.StatusCode, want)
		}
		resp, _ = get(t, fmt.Sprintf("%s/top?window=%d", ts.URL, w))
		if resp.StatusCode != want {
			t.Errorf("top window %d: status %d, want %d", w, resp.StatusCode, want)
		}
	}
}

// TestRestartReplayByteIdentical is the core crash-consistency
// property: reopening the state directory rebuilds byte-identical
// aggregates from the journal alone.
func TestRestartReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openTestServer(t, Config{Dir: dir})
	for i := 0; i < 5; i++ {
		payload := shardBytes(t, "micro/low-abort", i, uint64(7*(i+1)))
		window := i % 2
		if resp, body := ingest(t, ts.URL, payload, fmt.Sprintf("shard-%d", i), window); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	var before [2][]byte
	for w := range before {
		_, before[w] = get(t, fmt.Sprintf("%s/profile?window=%d", ts.URL, w))
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := openTestServer(t, Config{Dir: dir})
	if srv2.Replayed() != 5 {
		t.Errorf("replayed %d shards, want 5", srv2.Replayed())
	}
	for w := range before {
		_, after := get(t, fmt.Sprintf("%s/profile?window=%d", ts2.URL, w))
		if !bytes.Equal(before[w], after) {
			t.Errorf("window %d aggregate changed across restart (%d vs %d bytes)", w, len(before[w]), len(after))
		}
	}
	// Replayed keys still deduplicate.
	payload := shardBytes(t, "micro/low-abort", 0, 7)
	resp, _ := ingest(t, ts2.URL, payload, "shard-0", 0)
	if resp.Header.Get(HeaderStatus) != StatusDuplicate {
		t.Errorf("replayed key not deduplicated (header %q)", resp.Header.Get(HeaderStatus))
	}
}

// TestWindowKeepsPartialStamp: a window that folds an interrupted
// (Partial) shard serves a Partial aggregate, live and after a journal
// replay, and a "+"-joined shard program counts as its members.
func TestWindowKeepsPartialStamp(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openTestServer(t, Config{Dir: dir})
	partial, err := readDatabase(shardBytes(t, "micro/low-abort", 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	partial.Partial = true
	var buf bytes.Buffer
	if err := partial.Write(&buf); err != nil {
		t.Fatal(err)
	}
	shards := []struct {
		key     string
		window  int
		payload []byte
	}{
		{"partial", 0, buf.Bytes()},
		{"complete-0", 0, shardBytes(t, "micro/low-abort", 1, 7)},
		{"joined", 1, shardBytes(t, "micro/b+micro/a", 0, 3)},
		{"complete-1", 1, shardBytes(t, "micro/a", 1, 7)},
	}
	for _, sh := range shards {
		if resp, body := ingest(t, ts.URL, sh.payload, sh.key, sh.window); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", sh.key, resp.StatusCode, body)
		}
	}
	check := func(url, when string) {
		t.Helper()
		want := []struct {
			program string
			partial bool
		}{
			{"fleet/window-0[micro/low-abort]", true},
			{"fleet/window-1[micro/a+micro/b]", false},
		}
		for w, want := range want {
			_, body := get(t, fmt.Sprintf("%s/profile?window=%d", url, w))
			db, err := readDatabase(body)
			if err != nil {
				t.Fatalf("%s: window %d: %v", when, w, err)
			}
			if db.Program != want.program || db.Partial != want.partial {
				t.Errorf("%s: window %d is %q partial=%v, want %q partial=%v",
					when, w, db.Program, db.Partial, want.program, want.partial)
			}
		}
	}
	check(ts.URL, "live")
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := openTestServer(t, Config{Dir: dir})
	check(ts2.URL, "replayed")
}

// ackedJournal runs a daemon that acknowledges one shard per key,
// stops it, and returns its directory and the journal offset each
// shard's record starts at, with the journal's length last.
func ackedJournal(t *testing.T, keys ...string) (string, []int64) {
	t.Helper()
	dir := t.TempDir()
	srv, ts := openTestServer(t, Config{Dir: dir})
	path := filepath.Join(dir, JournalName)
	var offs []int64
	for i, key := range append(keys, "") {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, st.Size())
		if key != "" {
			if resp, body := ingest(t, ts.URL, shardBytes(t, "micro/low-abort", i, uint64(3+i)), key, 0); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %s: status %d: %s", key, resp.StatusCode, body)
			}
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, offs
}

// TestReplayTruncatesTornTail simulates a kill -9 mid-append: a torn
// final record, or a zero-filled tail, is discarded on restart and
// every intact record before it survives.
func TestReplayTruncatesTornTail(t *testing.T) {
	dir, offs := ackedJournal(t, "intact", "torn")
	path := filepath.Join(dir, JournalName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		image    []byte
		replayed uint64
	}{
		{whole[:(offs[1]+offs[2])/2], 1},
		{whole[:offs[2]-1], 1},
		{append(bytes.Clone(whole), make([]byte, 4096)...), 2},
	} {
		if err := os.WriteFile(path, tc.image, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, ts := openTestServer(t, Config{Dir: dir})
		if srv.Replayed() != tc.replayed {
			t.Errorf("%d-byte journal: replayed %d, want %d", len(tc.image), srv.Replayed(), tc.replayed)
		}
		// The torn bytes are gone: the journal accepts new appends cleanly.
		if resp, body := ingest(t, ts.URL, shardBytes(t, "micro/low-abort", 1, 3), "fresh", 0); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-truncation ingest: status %d: %s", resp.StatusCode, body)
		}
		ts.Close()
		srv.Close()
		srv, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if srv.Replayed() != tc.replayed+1 {
			t.Errorf("%d-byte journal: replayed %d after an append, want %d", len(tc.image), srv.Replayed(), tc.replayed+1)
		}
		srv.Close()
	}
}

// TestReplayRefusesDamage: damage other than a torn final append makes
// Open fail with the journal byte-identical, keeping every acknowledged
// shard for an operator to recover. So does a journal the earlier
// JSON-lines format wrote: an upgraded daemon refuses it instead of
// starting empty beside it.
func TestReplayRefusesDamage(t *testing.T) {
	dir, offs := ackedJournal(t, "k1", "k2", "k3")
	path := filepath.Join(dir, JournalName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zero := func(i int64) []byte {
		b := bytes.Clone(whole)
		b[i] = 0
		return b
	}
	var jsonl []byte
	for i, key := range []string{"k1", "k2", "k3"} {
		line, err := json.Marshal(map[string]any{"key": key, "window": 0, "payload": shardBytes(t, "micro/low-abort", i, 3)})
		if err != nil {
			t.Fatal(err)
		}
		jsonl = append(append(jsonl, line...), '\n')
	}
	for _, tc := range []struct {
		name  string
		image []byte
	}{
		{"byte inside record 2", zero((offs[1] + offs[2]) / 2)},
		{"record 2 length field", zero(offs[1])},
		{"JSONL journal", jsonl},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.image, 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := Open(Config{Dir: dir})
			if err == nil {
				srv.Close()
				t.Fatalf("Open accepted the journal, replayed %d shards", srv.Replayed())
			}
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("Open: %v, want record.ErrCorrupt", err)
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

// TestReplayRefusesOtherFormatVersion: a journal whose shards another
// profile format version wrote is intact, not torn. Open refuses it
// with the version error and leaves every acknowledged record in
// place.
func TestReplayRefusesOtherFormatVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalName)
	log, err := record.Open(path, journalMagic, journalVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf("txprofdb %d\n", profile.FormatVersion)
	old := fmt.Sprintf("txprofdb %d\n", profile.FormatVersion-1)
	for i, key := range []string{"old-1", "old-2"} {
		payload := bytes.Replace(shardBytes(t, "micro/low-abort", i, 5), []byte(cur), []byte(old), 1)
		if err := log.Append(encodeShard(Shard{Key: key, Window: 0, Payload: payload})); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Config{Dir: dir})
	var ve *profile.VersionError
	if err == nil {
		srv.Close()
		t.Fatalf("Open accepted a journal of version-%d shards", profile.FormatVersion-1)
	}
	if !errors.As(err, &ve) || ve.Got != profile.FormatVersion-1 || !strings.Contains(err.Error(), "fleet: replay old-1:") {
		t.Fatalf("Open: %v, want the version error of shard old-1", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused journal was rewritten: %d bytes -> %d", len(before), len(after))
	}
}

package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

func waitLagZero(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Lag() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("merge lag stuck at %d", srv.Lag())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestAndQuery(t *testing.T) {
	srv, ts := openTestServer(t, Config{Metrics: telemetry.NewRegistry()})
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
	waitLagZero(t, srv)

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
	for _, want := range []string{`"shards_journaled": 3`, `"shards_merged": 3`, `"fleet.ingested"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("stats missing %q:\n%s", want, body)
		}
	}

	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "live") {
		t.Errorf("readyz: status %d body %q", resp.StatusCode, body)
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
	srv, ts := openTestServer(t, Config{Metrics: reg})
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
	waitLagZero(t, srv)

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
}

// TestDegradationLadder drives the server down the ladder with a
// blocked merge pipeline: live acks, then deferred acks past the high
// watermark, then 429 shedding past max lag — and back to live once
// the merger drains.
func TestDegradationLadder(t *testing.T) {
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	srv, ts := openTestServer(t, Config{
		QueueCap:  2,
		HighWater: 2,
		LowWater:  1,
		MaxLag:    6,
		Metrics:   reg,
		MergeGate: func() { <-gate },
		// One worker: with a pool, each worker absorbs a queued shard
		// before blocking on the gate, which would keep the queue below
		// the high watermark on many-core machines and never trip the
		// ladder.
		MergeWorkers: 1,
	})

	statuses := make(map[string]int)
	codes := make(map[int]int)
	var shedResp *http.Response
	for i := 0; i < 10; i++ {
		payload := shardBytes(t, "micro/low-abort", i, uint64(i+1))
		resp, _ := ingest(t, ts.URL, payload, fmt.Sprintf("shard-%d", i), 0)
		statuses[resp.Header.Get(HeaderStatus)]++
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			shedResp = resp
		}
	}
	if statuses[StatusMerged] == 0 || statuses[StatusDeferred] == 0 || codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("ladder not exercised: statuses=%v codes=%v", statuses, codes)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// Shedding makes the daemon unready.
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while shedding: status %d", resp.StatusCode)
	}
	if v := reg.Counter("fleet.shed").Value(); v == 0 {
		t.Error("shed counter is zero")
	}
	if v := reg.Counter("fleet.degraded_transitions").Value(); v == 0 {
		t.Error("degraded transition counter is zero")
	}

	// Unblock the pipeline: everything journaled must merge, and the
	// shed shards retry through to acceptance.
	close(gate)
	waitLagZero(t, srv)
	for i := 0; i < 10; i++ {
		payload := shardBytes(t, "micro/low-abort", i, uint64(i+1))
		resp, body := ingest(t, ts.URL, payload, fmt.Sprintf("shard-%d", i), 0)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("retry of shard-%d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	waitLagZero(t, srv)

	// Ladder returned to live.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := get(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusOK && strings.Contains(string(body), "live") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never returned to live mode: status %d body %q", resp.StatusCode, body)
		}
		time.Sleep(time.Millisecond)
	}

	_, body := get(t, ts.URL+"/profile?window=0")
	agg, err := profile.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Weights 1..10 accepted exactly once each.
	if got := agg.Totals.AbortWeight[htm.Conflict]; got != 55 {
		t.Errorf("aggregate conflict weight = %d, want 55", got)
	}
}

func TestRetention(t *testing.T) {
	srv, ts := openTestServer(t, Config{Retain: 2})
	for w := 0; w < 4; w++ {
		payload := shardBytes(t, "micro/low-abort", w, uint64(w+1))
		resp, _ := ingest(t, ts.URL, payload, fmt.Sprintf("w%d", w), w)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: status %d", w, resp.StatusCode)
		}
	}
	waitLagZero(t, srv)
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
	waitLagZero(t, srv)
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
	waitLagZero(t, srv)
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
		waitLagZero(t, srv)
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
		if _, err := log.Append(encodeShard(Shard{Key: key, Window: 0, Payload: payload})); err != nil {
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

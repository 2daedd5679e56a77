package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"txsampler/internal/core"
	"txsampler/internal/fleet"
	"txsampler/internal/profile"
	"txsampler/internal/rtm"
)

func shardPayload(t *testing.T) []byte {
	t.Helper()
	var m core.Metrics
	m.Time[rtm.ModeNone], m.Time[rtm.ModeHTM] = 60, 40
	db := &profile.Database{
		Version: profile.FormatVersion,
		Program: "micro/low-abort",
		Threads: 2,
		Totals:  m,
		Root:    &profile.Node{Fn: "<root>", Children: []*profile.Node{{Fn: "main.work", Metrics: m}}},
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunServesIngestAndDrains boots the daemon on an ephemeral port,
// ingests one shard, checks the query and probe endpoints, stops it,
// then boots it again on the same state directory and verifies the
// shard replayed.
func TestRunServesIngestAndDrains(t *testing.T) {
	dir := t.TempDir()
	payload := shardPayload(t)

	boot := func(wantReplayed string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		addrc := make(chan string, 1)
		stopc := make(chan func(), 1)
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-dir", dir, "-debug-addr", "127.0.0.1:0"},
				&stdout, &stderr, func(addr string, stop func()) {
					addrc <- addr
					stopc <- stop
				})
		}()
		var addr string
		select {
		case addr = <-addrc:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon did not start; stderr: %s", stderr.String())
		}
		stop := <-stopc

		resp, err := http.Post("http://"+addr+"/ingest", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		// The ack means journaled, not merged: the merge is asynchronous,
		// so wait for /stats to report no merge lag before querying.
		waitMerged(t, addr)
		for _, path := range []string{"/stats", "/healthz", "/readyz", "/profile?window=0"} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", path, resp.StatusCode)
			}
		}

		stop()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain after stop")
		}
		if !strings.Contains(stdout.String(), wantReplayed) {
			t.Errorf("stdout missing %q:\n%s", wantReplayed, stdout.String())
		}
	}

	boot("replayed 0 shards")
	// Second boot replays the journaled shard.
	boot("replayed 1 shards")
}

// waitMerged polls /stats until every journaled shard is merged.
func waitMerged(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st fleet.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/stats: %v", err)
		}
		if st.Lag == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("merge lag still %d after 10s", st.Lag)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", ""}, &out, &errb, nil); code != 2 {
		t.Errorf("missing -dir: exit %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-dir", t.TempDir(), "-addr", "256.0.0.1:bad"}, &out, &errb, nil); code != 1 {
		t.Errorf("bad addr: exit %d, want 1", code)
	}
	if code := run([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-debug-addr", "256.0.0.1:bad"}, &out, &errb, nil); code != 1 {
		t.Errorf("bad debug addr: exit %d, want 1", code)
	}
}

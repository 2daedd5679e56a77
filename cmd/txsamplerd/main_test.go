package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"txsampler/internal/core"
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
// ingests one shard, checks the query endpoints and the debug port's
// probes, stops it, then boots it again on the same state directory
// and verifies the shard replayed.
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
		// The debug listener is bound before the hook runs.
		_, dbg, _ := strings.Cut(stderr.String(), "debug endpoints on http://")
		dbg, _, _ = strings.Cut(dbg, "/")

		resp, err := http.Post("http://"+addr+"/ingest", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		// The ack means folded: the shard is queryable at once.
		for _, url := range []string{addr + "/stats", addr + "/healthz", addr + "/profile?window=0", dbg + "/healthz", dbg + "/readyz"} {
			resp, err := http.Get("http://" + url)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", url, resp.StatusCode)
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

package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/profile"
	"txsampler/internal/rtm"
	"txsampler/internal/telemetry"
)

// wideShardBytes builds a framed database with a wide CCT of distinct
// frames, so each aggregated window pins a measurable amount of heap
// and retention reclaim shows up in memory statistics.
func wideShardBytes(t testing.TB, window, nodes int) []byte {
	t.Helper()
	var leaf core.Metrics
	leaf.Time[rtm.ModeNone] = 6
	leaf.Time[rtm.ModeHTM] = 4
	leaf.AbortWeight[htm.Conflict] = 1
	leaf.AbortCount[htm.Conflict] = 1
	root := &profile.Node{Fn: "<root>"}
	for i := 0; i < nodes; i++ {
		root.Children = append(root.Children, &profile.Node{
			Fn:      fmt.Sprintf("w%d.func%05d", window, i),
			Site:    fmt.Sprintf("file%d.c:%d", window, i),
			Metrics: leaf,
		})
	}
	db := &profile.Database{
		Version: profile.FormatVersion,
		Program: fmt.Sprintf("wide/w%d", window),
		Threads: 2,
		Periods: [5]uint64{2000000, 20011, 20011, 8009, 8009},
		Totals:  leaf,
		PerThread: []profile.Thread{
			{TID: 0, CommitSamples: uint64(nodes), AbortSamples: 1},
		},
		Root: root,
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func heapAllocAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionReclaimsMemory drives sustained multi-window ingest
// against a small retention horizon and checks that compaction really
// returns aggregate memory to the garbage collector: heap-in-use
// stabilizes instead of growing with the number of windows ever seen.
func TestRetentionReclaimsMemory(t *testing.T) {
	const (
		retain     = 2
		warmup     = 4
		total      = 40
		treeNodes  = 3000
		slackBytes = 10 << 20
	)
	reg := telemetry.NewRegistry()
	srv, ts := openTestServer(t, Config{Retain: retain, Metrics: reg})

	ingestWindow := func(w int) {
		payload := wideShardBytes(t, w, treeNodes)
		resp, body := ingest(t, ts.URL, payload, fmt.Sprintf("wide-%d", w), w)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d: status %d: %s", w, resp.StatusCode, body)
		}
	}

	for w := 0; w < warmup; w++ {
		ingestWindow(w)
	}
	baseline := heapAllocAfterGC()

	for w := warmup; w < total; w++ {
		ingestWindow(w)
	}
	final := heapAllocAfterGC()

	// Without reclaim every window ever ingested stays resident
	// (~treeNodes CCT nodes each, far more than the slack over the
	// whole run); with reclaim only the retained windows do.
	if final > baseline+slackBytes {
		t.Errorf("heap grew from %d to %d bytes over %d windows with retain=%d; compaction is not reclaiming memory",
			baseline, final, total, retain)
	}

	srv.aggMu.Lock()
	live, horizon := len(srv.windows), srv.compactedBelow
	srv.aggMu.Unlock()
	if live != retain {
		t.Errorf("live windows = %d, want %d", live, retain)
	}
	if want := total - retain; horizon != want {
		t.Errorf("compactedBelow = %d, want %d", horizon, want)
	}
	if v := reg.Counter("fleet.windows_compacted").Value(); v != uint64(total-retain) {
		t.Errorf("windows_compacted = %d, want %d", v, total-retain)
	}
	if v := reg.Gauge("fleet.windows", false).Value(); v != uint64(retain) {
		t.Errorf("fleet.windows gauge = %d, want %d", v, retain)
	}

	// A shard for a compacted window stays journaled (and deduplicated)
	// but folds to nothing and the window remains 410 Gone.
	ingestWindow(0)
	if resp, _ := get(t, ts.URL+"/profile?window=0"); resp.StatusCode != http.StatusGone {
		t.Errorf("compacted window after late shard: status %d, want %d", resp.StatusCode, http.StatusGone)
	}
	srv.aggMu.Lock()
	live = len(srv.windows)
	srv.aggMu.Unlock()
	if live != retain {
		t.Errorf("late shard resurrected a compacted window: live windows = %d", live)
	}
}

// TestRetentionReplayReachesSameHorizon restarts a retention-limited
// daemon and checks the journal replay compacts to the same horizon
// with byte-identical retained aggregates — even though the journal
// still holds every compacted shard.
func TestRetentionReplayReachesSameHorizon(t *testing.T) {
	dir := t.TempDir()
	srv, ts := openTestServer(t, Config{Dir: dir, Retain: 2})
	for w := 0; w < 6; w++ {
		payload := shardBytes(t, "micro/low-abort", w, uint64(3*(w+1)))
		if resp, _ := ingest(t, ts.URL, payload, fmt.Sprintf("w%d", w), w); resp.StatusCode != http.StatusOK {
			t.Fatalf("window %d ingest failed", w)
		}
	}
	var before [2][]byte
	for i := range before {
		_, before[i] = get(t, fmt.Sprintf("%s/profile?window=%d", ts.URL, 4+i))
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := openTestServer(t, Config{Dir: dir, Retain: 2})
	if srv2.Replayed() != 6 {
		t.Errorf("replayed %d shards, want 6", srv2.Replayed())
	}
	srv2.aggMu.Lock()
	live, horizon := len(srv2.windows), srv2.compactedBelow
	srv2.aggMu.Unlock()
	if live != 2 || horizon != 4 {
		t.Errorf("after replay: live=%d horizon=%d, want live=2 horizon=4", live, horizon)
	}
	for i := range before {
		_, after := get(t, fmt.Sprintf("%s/profile?window=%d", ts2.URL, 4+i))
		if !bytes.Equal(before[i], after) {
			t.Errorf("retained window %d differs across replay", 4+i)
		}
	}
	for w := 0; w < 4; w++ {
		if resp, _ := get(t, fmt.Sprintf("%s/profile?window=%d", ts2.URL, w)); resp.StatusCode != http.StatusGone {
			t.Errorf("compacted window %d after replay: status %d, want %d", w, resp.StatusCode, http.StatusGone)
		}
	}
}

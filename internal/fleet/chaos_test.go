package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"txsampler/internal/faults"
	"txsampler/internal/htm"
	"txsampler/internal/machine"
	"txsampler/internal/profile"
	"txsampler/internal/retry"
	"txsampler/internal/telemetry"
)

// readDatabase parses framed aggregate bytes fetched from /profile.
func readDatabase(b []byte) (*profile.Database, error) {
	return profile.Read(bytes.NewReader(b))
}

// uploadAll ships every shard through a fault-injecting client with
// retries, returning the per-shard errors.
func uploadAll(t *testing.T, baseURL string, shards []Shard, plan faults.NetPlan, seed uint64) []error {
	t.Helper()
	up := &Uploader{
		BaseURL: baseURL,
		Client:  &http.Client{Transport: faults.NewNetTransport(nil, plan, seed)},
		Policy: retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond,
			Sleep: func(context.Context, time.Duration) error { return nil }},
	}
	errs := make([]error, len(shards))
	for i, sh := range shards {
		_, errs[i] = up.Upload(context.Background(), sh)
	}
	return errs
}

// TestCrashRestartByteIdenticalUnderFaultStorm is the acceptance
// scenario run in-process: shards flow to a daemon through a seeded
// network fault storm (drops, duplicates, resets mid-body); the daemon
// is "killed" mid-append (a copied journal plus a torn frame is
// exactly the disk image kill -9 leaves, because every ack follows an
// fsynced append); the restarted daemon replays,
// the clients re-send everything, and the final aggregate is
// byte-identical to a fault-free reference run.
func TestCrashRestartByteIdenticalUnderFaultStorm(t *testing.T) {
	const nShards = 6
	shards := make([]Shard, nShards)
	for i := range shards {
		shards[i] = Shard{
			Key:     fmt.Sprintf("node-%d/micro/s%d", i%3, i),
			Node:    fmt.Sprintf("node-%d", i%3),
			Window:  i % 2,
			Payload: shardBytes(t, "micro/low-abort", i, uint64(3*(i+1))),
		}
	}

	// Reference: clean daemon, no faults, no crash.
	_, refTS := openTestServer(t, Config{})
	for _, sh := range shards {
		if resp, body := ingest(t, refTS.URL, sh.Payload, sh.Key, sh.Window); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference ingest: status %d: %s", resp.StatusCode, body)
		}
	}
	var want [2][]byte
	for w := range want {
		_, want[w] = get(t, fmt.Sprintf("%s/profile?window=%d", refTS.URL, w))
	}

	// Victim: faulty network, then a crash image taken at the current
	// journal length with torn garbage appended.
	victimDir := t.TempDir()
	_, victimTS := openTestServer(t, Config{Dir: victimDir})
	storm := faults.NetPlan{DropRate: 0.25, DupRate: 0.15, ResetRate: 0.15, LatencyRate: 0.2, LatencyMaxMS: 1}
	for i, err := range uploadAll(t, victimTS.URL, shards[:4], storm, 0xfeed) {
		if err != nil {
			t.Fatalf("storm upload %d never got through: %v", i, err)
		}
	}

	journal, err := os.ReadFile(filepath.Join(victimDir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	// A kill -9 mid-append leaves a prefix of the next record's frame:
	// here, a torn copy of the first one.
	first := journal[bytes.IndexByte(journal, '\n')+1:]
	image := append(bytes.Clone(journal), first[:64]...)
	if err := os.WriteFile(filepath.Join(crashDir, JournalName), image, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart on the crash image; the fleet re-sends everything
	// (including the four already-accepted shards) through a fresh
	// fault storm.
	reSrv, reTS := openTestServer(t, Config{Dir: crashDir})
	if reSrv.Replayed() != 4 {
		t.Fatalf("replayed %d shards from crash image, want 4", reSrv.Replayed())
	}
	for i, err := range uploadAll(t, reTS.URL, shards, storm, 0xdead) {
		if err != nil {
			t.Fatalf("post-crash upload %d failed: %v", i, err)
		}
	}
	for w := range want {
		_, got := get(t, fmt.Sprintf("%s/profile?window=%d", reTS.URL, w))
		if !bytes.Equal(want[w], got) {
			t.Errorf("window %d: post-crash aggregate differs from fault-free reference (%d vs %d bytes)",
				w, len(got), len(want[w]))
		}
	}
}

// TestIngestConcurrentStress hammers one daemon from many goroutines —
// including deliberate key collisions — so the race detector can chew
// on the idempotency check, the journal append and the fold at once.
func TestIngestConcurrentStress(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := openTestServer(t, Config{Metrics: reg})
	const goroutines = 8
	const perG = 12
	payloads := make([][]byte, perG)
	for i := range payloads {
		payloads[i] = shardBytes(t, "micro/low-abort", i, uint64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Half the goroutines share keys: concurrent
				// duplicates must collapse to one accept each.
				key := fmt.Sprintf("shared-%d", i)
				if g%2 == 1 {
					key = fmt.Sprintf("own-%d-%d", g, i)
				}
				resp, body := ingest(t, ts.URL, payloads[i], key, 0)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("g%d i%d: status %d: %s", g, i, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// perG shared keys + (goroutines/2)*perG private keys.
	wantAccepted := uint64(perG + goroutines/2*perG)
	if v := reg.Counter("fleet.ingested").Value(); v != wantAccepted {
		t.Errorf("ingested = %d, want %d", v, wantAccepted)
	}
	if v := reg.Counter("fleet.duplicates").Value(); v != uint64(goroutines)*perG-wantAccepted {
		t.Errorf("duplicates = %d, want %d", v, uint64(goroutines)*perG-wantAccepted)
	}
	// Every accepted key folds exactly once: payload i weighs i+1, and
	// each i was accepted under its shared key and goroutines/2 private
	// ones.
	_, body := get(t, ts.URL+"/profile?window=0")
	agg, err := readDatabase(body)
	if err != nil {
		t.Fatalf("stressed aggregate does not parse: %v", err)
	}
	want := uint64(1+goroutines/2) * perG * (perG + 1) / 2
	if got := agg.Totals.AbortWeight[htm.Conflict]; got != want {
		t.Errorf("conflict weight = %d, want %d", got, want)
	}
}

// TestRunFleetEndToEnd drives the real pipeline: profile a workload
// with the simulator, fan it out over uploader nodes through a seeded
// fault storm, and check the daemon accepted exactly one shard per
// node — then re-run the campaign and watch idempotency absorb it.
func TestRunFleetEndToEnd(t *testing.T) {
	_, ts := openTestServer(t, Config{})
	cfg := FleetConfig{
		BaseURL:   ts.URL,
		Nodes:     3,
		Workloads: []string{"micro/low-abort"},
		Seed:      7,
		Net:       faults.NetPlan{DropRate: 0.2, DupRate: 0.1, ResetRate: 0.1},
	}
	rep, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Shards != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Accepted != 3 {
		t.Errorf("accepted = %d, want 3", rep.Accepted)
	}

	// Same campaign again: every shard is a known idempotency key.
	rep2, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Duplicates != 3 || rep2.Failed != 0 {
		t.Errorf("re-run report = %+v, want 3 duplicates", rep2)
	}

	// The aggregate is exactly 3x one node's profile totals.
	_, body := get(t, ts.URL+"/profile?window=0")
	agg, err := readDatabase(body)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Totals.W() == 0 || agg.Totals.W()%3 != 0 {
		t.Errorf("aggregate W = %d, want a positive multiple of 3", agg.Totals.W())
	}

	// Bad config errors.
	if _, err := RunFleet(FleetConfig{BaseURL: ts.URL}); err == nil {
		t.Error("RunFleet without workloads succeeded")
	}
	if _, err := RunFleet(FleetConfig{BaseURL: ts.URL, Workloads: []string{"no/such-workload"}}); err == nil {
		t.Error("RunFleet with unknown workload succeeded")
	}
	if _, err := RunFleet(FleetConfig{BaseURL: ts.URL, Workloads: cfg.Workloads, Net: faults.NetPlan{DropRate: math.NaN()}}); err == nil {
		t.Error("RunFleet with a NaN network drop rate succeeded")
	}
}

// TestRunFleetQuantumIsNotIdentity: profiles are invariant to the
// scheduler quantum, so a re-run that changes only the quantum uploads
// under the same idempotency keys and is acked as duplicates. The
// hybrid policy changes the profile bytes, so it changes the keys.
func TestRunFleetQuantumIsNotIdentity(t *testing.T) {
	_, ts := openTestServer(t, Config{})
	cfg := FleetConfig{
		BaseURL:   ts.URL,
		Nodes:     2,
		Workloads: []string{"micro/low-abort"},
		Seed:      7,
	}
	rep, err := RunFleet(cfg)
	if err != nil || rep.Failed != 0 || rep.Accepted != 2 {
		t.Fatalf("first run: %v, report %+v", err, rep)
	}
	cfg.Quantum = 1
	rep, err = RunFleet(cfg)
	if err != nil || rep.Duplicates != 2 {
		t.Errorf("re-run at quantum 1: %v, report %+v, want 2 duplicates", err, rep)
	}
	cfg.Hybrid = machine.HybridStmFallback
	rep, err = RunFleet(cfg)
	if err != nil || rep.Failed != 0 || rep.Accepted != 2 {
		t.Errorf("re-run under %v: %v, report %+v, want 2 new shards", cfg.Hybrid, err, rep)
	}
}

// TestRunFleetReturnsCancellation: a campaign whose context is
// canceled during the uploads returns an error wrapping the cause, not
// a report of failed shards.
func TestRunFleetReturnsCancellation(t *testing.T) {
	stopped := errors.New("operator stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel(stopped)
		http.Error(w, "daemon failing", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rep, err := RunFleet(FleetConfig{
		BaseURL:   ts.URL,
		Nodes:     2,
		Workloads: []string{"micro/low-abort"},
		Seed:      7,
		Context:   ctx,
	})
	if !errors.Is(err, stopped) || rep == nil || rep.Shards != 2 {
		t.Fatalf("RunFleet = %+v, %v; want the report and an error wrapping %q", rep, err, stopped)
	}
	// Canceled before the profiling: the run stops at once.
	if _, err := RunFleet(FleetConfig{BaseURL: ts.URL, Workloads: []string{"micro/low-abort"}, Context: ctx}); !errors.Is(err, stopped) {
		t.Errorf("RunFleet on a canceled context = %v, want %q", err, stopped)
	}
}

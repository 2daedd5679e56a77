package txsampler_test

// Kill-resume determinism and cancellation chaos, end to end: an
// interrupted-and-resumed campaign must produce byte-identical
// artifacts to an uninterrupted one, every artifact it leaves behind
// must pass verification at every point (a cancellation never tears a
// database), and the analysis read back from resumed artifacts must
// match exactly.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"txsampler"
	"txsampler/internal/experiments"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/profile"
)

var recoveryWorkloads = []string{"micro/low-abort", "micro/true-sharing"}

func runCampaign(t *testing.T, dir string, resume bool, ctx context.Context) error {
	t.Helper()
	_, err := experiments.ProfileCampaign(io.Discard, experiments.CampaignConfig{
		Dir: dir, Workloads: recoveryWorkloads,
		Threads: 4, Seed: 11, Seeds: 2,
		Resume: resume, Parallel: 2, Context: ctx,
	})
	return err
}

// diffDirs compares every artifact (journals excluded: parallel
// workers interleave their lines in completion order).
func diffDirs(t *testing.T, a, b string) {
	t.Helper()
	ents, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range ents {
		if e.Name() == experiments.JournalName {
			continue
		}
		wa, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatalf("artifact missing after resume: %v", err)
		}
		if !bytes.Equal(wa, wb) {
			t.Fatalf("%s differs between uninterrupted and resumed campaigns", e.Name())
		}
		compared++
	}
	if compared != len(recoveryWorkloads)*2 {
		t.Fatalf("compared %d artifacts, want %d", compared, len(recoveryWorkloads)*2)
	}
}

func fsckClean(t *testing.T, dir string) {
	t.Helper()
	res, err := profile.Fsck(io.Discard, []string{dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Problems() {
		t.Fatalf("campaign directory not clean: %+v", res)
	}
}

func TestCampaignInterruptResumeByteIdentical(t *testing.T) {
	full := t.TempDir()
	if err := runCampaign(t, full, false, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupt a fresh campaign at an arbitrary point (wall-clock
	// cancellation lands at whatever quantum boundary comes next), then
	// resume it to completion.
	interrupted := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	err := runCampaign(t, interrupted, false, ctx)
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	// Whatever the kill left behind is already consistent: artifacts
	// are written atomically, so none of them is torn.
	fsckClean(t, interrupted)
	if err := runCampaign(t, interrupted, true, nil); err != nil {
		t.Fatal(err)
	}

	fsckClean(t, interrupted)
	diffDirs(t, full, interrupted)

	// The analysis read back through the store matches too — resumed
	// campaigns report identical classification tables.
	for _, e := range mustReadDir(t, full) {
		if e.Name() == experiments.JournalName {
			continue
		}
		dbFull, err := profile.Load(filepath.Join(full, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dbRes, err := profile.Load(filepath.Join(interrupted, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rf, rr := dbFull.Report(), dbRes.Report()
		if rf.Categorize() != rr.Categorize() || rf.Rcs() != rr.Rcs() || rf.AbortCommitRatio() != rr.AbortCommitRatio() {
			t.Fatalf("%s: classification diverged after resume", e.Name())
		}
	}
}

// TestPmemRecoveryReplayEquivalence: whatever a run leaves in the
// persist domain — crash-free or mid-run crash storms — is
// crash-consistent at rest. Replaying recovery over the surviving undo
// log must be a verdict-identical fixed point: Clean (every surviving
// record belongs to a committed transaction), byte-identical image
// before and after, and a second replay must return the exact same
// summary. This is the reboot-after-reboot equivalence a real
// recovery daemon relies on.
func TestPmemRecoveryReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faults.Plan
	}{
		{"clean", faults.Plan{}},
		{"mid-log-storm", faults.Plan{PmemCrashPoint: faults.PmemCrashMidLog, PmemCrashEvery: 4}},
		{"torn-tail-storm", faults.Plan{PmemCrashPoint: faults.PmemCrashTornTail, PmemCrashEvery: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range workloads(t, 13, 4, "pmem/kv", "pmem/log") {
				w := p.w
				m := machine.New(machine.Config{
					Threads: p.threads, Cache: txsampler.BenchCache(),
					Seed: p.seed, StartSkew: 1024, Faults: tc.plan,
					Pmem: pmem.Config{Enabled: true},
				})
				inst := w.BuildInstance(m, nil)
				if err := m.Run(inst.Bodies...); err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				if err := inst.Check(m); err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				d := m.Pmem()
				before := d.Fingerprint()
				rec := pmem.Recover(d.Log(), d.Image())
				if !rec.Clean() {
					t.Fatalf("%s: at-rest log not clean after run: %+v", w.Name, rec)
				}
				if got := d.Fingerprint(); got != before {
					t.Fatalf("%s: recovery replay moved the at-rest image (%#x vs %#x)", w.Name, got, before)
				}
				again := pmem.Recover(d.Log(), d.Image())
				if again != rec {
					t.Fatalf("%s: second replay verdict differs: %+v vs %+v", w.Name, again, rec)
				}
				if got := d.Fingerprint(); got != before {
					t.Fatalf("%s: second replay moved the image", w.Name)
				}
			}
		})
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// TestCancellationChaosNeverTearsDatabase cancels profiled runs at
// random wall-clock points — which land on random quantum boundaries —
// and checks that every flushed partial database verifies cleanly.
func TestCancellationChaosNeverTearsDatabase(t *testing.T) {
	dir := t.TempDir()
	for i, delay := range []time.Duration{
		0, 50 * time.Microsecond, 200 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		res, err := txsampler.Run("stamp/labyrinth", txsampler.Options{
			Threads: 8, Seed: int64(i), Profile: true, Context: ctx,
		})
		cancel()
		switch {
		case err == nil:
			if res.Report.Partial {
				t.Fatalf("delay %v: completed run marked Partial", delay)
			}
		case errors.Is(err, txsampler.ErrCanceled):
			if res == nil || res.Report == nil || !res.Report.Partial {
				t.Fatalf("delay %v: canceled run returned no partial report", delay)
			}
		default:
			t.Fatalf("delay %v: %v", delay, err)
		}
		path := filepath.Join(dir, "chaos.json")
		if err := profile.FromReport(res.Report).Save(path); err != nil {
			t.Fatalf("delay %v: save: %v", delay, err)
		}
		info, err := profile.Load(path)
		if err != nil {
			t.Fatalf("delay %v: flushed database does not verify: %v", delay, err)
		}
		if info.Partial != res.Report.Partial {
			t.Fatalf("delay %v: partial stamp mismatch", delay)
		}
	}
}

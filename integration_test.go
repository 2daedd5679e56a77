package txsampler_test

// End-to-end validation: the full pipeline (simulated machine →
// collector → analyzer → decision tree) must reproduce the paper's
// diagnoses for the §8 case studies, and sampled metrics must agree
// with ground truth.

import (
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/htm"
	"txsampler/internal/pmu"
)

func suggestions(t *testing.T, name string, threads int) string {
	t.Helper()
	res, err := txsampler.Run(name, txsampler.Options{Threads: threads, Seed: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Advice.String()
}

// TestDiagnosisDedup: §8.1 — dedup's advice must point at the
// footprint (capacity) and the unfriendly instructions (syscalls).
func TestDiagnosisDedup(t *testing.T) {
	out := suggestions(t, "parsec/dedup", 14)
	if !strings.Contains(out, "footprint") && !strings.Contains(out, "L1 capacity") {
		t.Errorf("dedup advice misses the capacity diagnosis:\n%s", out)
	}
	if !strings.Contains(out, "unfriendly instructions") {
		t.Errorf("dedup advice misses the system-call diagnosis:\n%s", out)
	}
}

// TestDiagnosisAVLTree: Table 2 — the read-lock serialization shows up
// as high lock waiting, and the tree suggests eliding read locks.
func TestDiagnosisAVLTree(t *testing.T) {
	out := suggestions(t, "app/avltree", 14)
	if !strings.Contains(out, "high lock waiting") {
		t.Errorf("avltree advice misses the lock-wait step:\n%s", out)
	}
	if !strings.Contains(out, "Elide read locks") {
		t.Errorf("avltree advice misses the elide suggestion:\n%s", out)
	}
}

// TestDiagnosisHisto: §8.3 — the per-pixel transactions show up as
// overhead, and the tree suggests merging.
func TestDiagnosisHisto(t *testing.T) {
	out := suggestions(t, "parboil/histo-1", 14)
	if !strings.Contains(out, "large T_oh") {
		t.Errorf("histo advice misses the overhead step:\n%s", out)
	}
	if !strings.Contains(out, "Merge multiple small transactions") {
		t.Errorf("histo advice misses the merge suggestion:\n%s", out)
	}
}

// TestDiagnosisLevelDB: §8.2 — conflict-dominated aborts suggest
// shrinking/splitting transactions.
func TestDiagnosisLevelDB(t *testing.T) {
	out := suggestions(t, "app/leveldb", 14)
	if !strings.Contains(out, "abort analysis") {
		t.Errorf("leveldb advice misses abort analysis:\n%s", out)
	}
	if !strings.Contains(out, "Shrink transactions") && !strings.Contains(out, "Split transactions") {
		t.Errorf("leveldb advice misses shrink/split:\n%s", out)
	}
}

// TestDiagnosisTypeI: a compute-bound program must be dismissed at the
// first decision-tree step.
func TestDiagnosisTypeI(t *testing.T) {
	out := suggestions(t, "splash2/barnes", 14)
	if !strings.Contains(out, "No HTM-related performance issue") {
		t.Errorf("barnes advice should stop at step 1:\n%s", out)
	}
}

// TestSampledCauseSharesMatchGroundTruth: with every abort sampled,
// the profiler's per-cause counts equal the machine's exact counts.
func TestSampledCauseSharesMatchGroundTruth(t *testing.T) {
	var periods pmu.Periods
	periods[pmu.TxAbort] = 1
	periods[pmu.TxCommit] = 1
	for _, name := range []string{"parsec/dedup", "stamp/vacation", "micro/sync-abort"} {
		res, err := txsampler.Run(name, txsampler.Options{Threads: 8, Seed: 2, Profile: true, Periods: periods})
		if err != nil {
			t.Fatal(err)
		}
		g := res.GroundTruth
		tot := res.Report.Totals
		for _, c := range []htm.Cause{htm.Conflict, htm.Capacity, htm.Sync, htm.Explicit} {
			if tot.AbortCount[c] != g.Aborts[c] {
				t.Errorf("%s/%v: sampled %d, ground truth %d", name, c, tot.AbortCount[c], g.Aborts[c])
			}
		}
		if tot.CommitSamples != g.Commits {
			t.Errorf("%s: sampled commits %d, ground truth %d", name, tot.CommitSamples, g.Commits)
		}
	}
}

// TestHistoSharingDiagnosis: §8.3's input-2 merged run must show false
// sharing dominating the contention classification.
func TestHistoSharingDiagnosis(t *testing.T) {
	// Contention detection needs two samples to land on one line
	// within the window, so the scaled-down run samples memory
	// densely (the paper tunes sampling rates per analysis, §6).
	periods := txsampler.DefaultPeriods()
	periods[pmu.Loads] = 150
	periods[pmu.Stores] = 150
	res, err := txsampler.Run("parboil/histo-2-merged", txsampler.Options{Threads: 14, Seed: 1, Profile: true, Periods: periods})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Report.Totals
	if tot.FalseSharing == 0 {
		t.Fatal("no false sharing detected on dense uniform bins")
	}
	if tot.FalseSharing <= tot.TrueSharing {
		t.Errorf("false=%d true=%d: false sharing should dominate", tot.FalseSharing, tot.TrueSharing)
	}
}

// TestProfiledRunsPreserveResults: the profiler must never change what
// the program computes (only when the workload defines a Check).
func TestProfiledRunsPreserveResults(t *testing.T) {
	for _, name := range []string{"micro/low-abort", "micro/true-sharing", "clomp/small-2", "clomp/large-2"} {
		if _, err := txsampler.Run(name, txsampler.Options{Threads: 8, Seed: 4, Profile: true}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSoakAllWorkloadsProfiled runs every registered workload under
// the profiler at its default (paper) thread count. Skipped in -short
// mode.
func TestSoakAllWorkloadsProfiled(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, name := range txsampler.Names() {
		name := name
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			res, err := txsampler.Run(name, txsampler.Options{Seed: 3, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Totals.W() == 0 {
				t.Error("no cycles samples collected")
			}
			if res.CollectorBytes > res.Threads*5<<20 {
				t.Errorf("collector footprint %d exceeds the paper's 5MB/thread bound", res.CollectorBytes)
			}
		})
	}
}

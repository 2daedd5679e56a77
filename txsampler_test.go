package txsampler_test

import (
	"testing"

	"txsampler"
	"txsampler/internal/htm"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
)

func TestNamesNonEmpty(t *testing.T) {
	if len(txsampler.Names()) < 30 {
		t.Fatalf("only %d workloads registered", len(txsampler.Names()))
	}
}

func TestLookup(t *testing.T) {
	w, err := txsampler.Lookup("parsec/dedup")
	if err != nil || w == nil || w.Name != "parsec/dedup" {
		t.Fatalf("Lookup = %+v, %v", w, err)
	}
	if _, err := txsampler.Lookup("bogus/none"); err == nil {
		t.Fatal("unknown workload looked up")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := txsampler.Run("bogus/none", txsampler.Options{}); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestRunNative(t *testing.T) {
	res, err := txsampler.Run("micro/low-abort", txsampler.Options{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil || res.Advice != nil {
		t.Fatal("native run produced a profile")
	}
	if res.ElapsedCycles == 0 || res.GroundTruth.Commits == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Threads != 4 {
		t.Fatalf("threads = %d", res.Threads)
	}
}

func TestRunProfiled(t *testing.T) {
	res, err := txsampler.Run("stamp/vacation", txsampler.Options{Threads: 6, Seed: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Advice == nil {
		t.Fatal("profiled run produced no report/advice")
	}
	if res.Report.Totals.W() == 0 {
		t.Fatal("no cycles samples collected")
	}
	if res.CollectorBytes <= 0 {
		t.Fatal("no collector footprint reported")
	}
	if len(res.Advice.Steps) == 0 {
		t.Fatal("decision tree produced no steps")
	}
}

func TestDefaultThreadsFromWorkload(t *testing.T) {
	res, err := txsampler.Run("splash2/barnes", txsampler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 14 {
		t.Fatalf("default threads = %d, want 14", res.Threads)
	}
}

func TestOverheadPositiveWorkloads(t *testing.T) {
	native, profiled, _, err := txsampler.Overhead("micro/low-abort", txsampler.Options{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if native.Report != nil {
		t.Fatal("native leg was profiled")
	}
	if profiled.Report == nil {
		t.Fatal("profiled leg was not profiled")
	}
	// Both legs compute the same result.
	if native.GroundTruth.Commits != profiled.GroundTruth.Commits {
		t.Fatalf("commit counts differ: %d vs %d",
			native.GroundTruth.Commits, profiled.GroundTruth.Commits)
	}
}

func TestSpeedupOrientation(t *testing.T) {
	s, err := txsampler.Speedup("parboil/histo-1", "parboil/histo-1-merged", txsampler.Options{Threads: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1 {
		t.Fatalf("histo merge speedup = %.2f, want > 1", s)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	r1, err := txsampler.Run("stamp/kmeans", txsampler.Options{Threads: 6, Seed: 9, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := txsampler.Run("stamp/kmeans", txsampler.Options{Threads: 6, Seed: 9, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ElapsedCycles != r2.ElapsedCycles || r1.Report.Totals != r2.Report.Totals {
		t.Fatal("profiled runs with identical options differ")
	}
}

func TestRunCustomWorkload(t *testing.T) {
	w := &htmbench.Workload{
		Name: "test/custom", Suite: "test", DefaultThreads: 2,
		Build: func(ctx *htmbench.Ctx) *htmbench.Instance {
			a := ctx.M.Mem.AllocLines(1)
			bodies := make([]func(*machine.Thread), ctx.Threads)
			for i := range bodies {
				bodies[i] = func(t *machine.Thread) {
					for j := 0; j < 20; j++ {
						ctx.Lock.Run(t, func() { t.Add(a, 1) })
					}
				}
			}
			return &htmbench.Instance{Bodies: bodies}
		},
	}
	res, err := txsampler.RunWorkload(w, txsampler.Options{Seed: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroundTruth.Commits+res.GroundTruth.Aborts[htm.Sync] == 0 {
		t.Fatal("custom workload did nothing")
	}
}

func TestResultCheckFailureSurfaces(t *testing.T) {
	w := &htmbench.Workload{
		Name: "test/failing-check", Suite: "test", DefaultThreads: 1,
		Build: func(ctx *htmbench.Ctx) *htmbench.Instance {
			return &htmbench.Instance{
				Bodies: []func(*machine.Thread){func(t *machine.Thread) { t.Compute(1) }},
				Check: func(m *machine.Machine) error {
					return errFailedCheck
				},
			}
		},
	}
	if _, err := txsampler.RunWorkload(w, txsampler.Options{}); err == nil {
		t.Fatal("failing check did not surface")
	}
}

var errFailedCheck = errFail{}

type errFail struct{}

func (errFail) Error() string { return "intentional check failure" }

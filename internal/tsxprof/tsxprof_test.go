package tsxprof

import (
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/machine"
)

func TestProfilePhases(t *testing.T) {
	res, err := Profile("stamp/vacation", 8, 1, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	if res.NativeCycles == 0 || res.RecordCycles == 0 || res.ReplayCycles == 0 {
		t.Fatalf("empty phases: %+v", res)
	}
	if res.RecordCycles <= res.NativeCycles {
		t.Errorf("record phase (%d) not slower than native (%d)", res.RecordCycles, res.NativeCycles)
	}
	if res.ReplaySlowdown() < 1.2 {
		t.Errorf("replay slowdown = %.2fx, expected a multiple of native", res.ReplaySlowdown())
	}
	// A memory-intensive workload pays the full replay cost.
	list, err := Profile("synchro/linkedlist", 8, 1, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	if list.ReplaySlowdown() < 1.5 {
		t.Errorf("linkedlist replay slowdown = %.2fx, want >= 1.5x", list.ReplaySlowdown())
	}
	if res.Events == 0 || res.TraceBytes != res.Events*EventBytes {
		t.Fatalf("trace accounting wrong: %+v", res)
	}
}

func TestTraceGrowsWithAbortRate(t *testing.T) {
	// The record phase logs one event per attempt: a high-abort
	// workload produces a longer trace per committed transaction than
	// a low-abort one (the paper's disk-usage argument).
	low, err := Profile("micro/low-abort", 8, 1, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Profile("micro/true-sharing", 8, 1, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize per critical section: low-abort does 400/thread,
	// true-sharing 120/thread.
	lowPerCS := float64(low.Events) / (400 * 8)
	highPerCS := float64(high.Events) / (120 * 8)
	if highPerCS <= lowPerCS {
		t.Errorf("events per CS: high-abort %.2f <= low-abort %.2f", highPerCS, lowPerCS)
	}
}

func TestRecorderCountsEventKinds(t *testing.T) {
	res, err := Profile("micro/sync-abort", 4, 1, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Every critical section emits a begin plus at least one outcome.
	const sections = 200 * 4
	if res.Events < 2*sections {
		t.Errorf("events = %d, want >= %d (begin + outcome per CS)", res.Events, 2*sections)
	}
}

func TestProfileUnknownWorkload(t *testing.T) {
	if _, err := Profile("no/such", 4, 1, machine.HybridLockOnly); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCompareRendering(t *testing.T) {
	var b strings.Builder
	err := Compare(&b, []string{"micro/low-abort"}, 4, 1, machine.HybridLockOnly, func(string) (float64, error) { return 0.04, nil })
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"record=", "replay=", "trace=", "txsampler=  4.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	a, err := Profile("micro/low-abort", 4, 5, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile("micro/low-abort", 4, 5, machine.HybridLockOnly)
	if err != nil {
		t.Fatal(err)
	}
	if a.NativeCycles != b.NativeCycles || a.ReplayCycles != b.ReplayCycles || a.Events != b.Events {
		t.Fatalf("record/replay nondeterministic: %+v vs %+v", a, b)
	}
}

// TestNativeMatchesTxSampler: the native phase is the run txsampler.Run
// makes without the profiler, under the same hybrid policy, so the
// comparison's overheads share one baseline.
func TestNativeMatchesTxSampler(t *testing.T) {
	for _, h := range []machine.HybridPolicy{machine.HybridLockOnly, machine.HybridStmFallback} {
		for _, name := range []string{"synchro/linkedlist", "stamp/vacation"} {
			res, err := Profile(name, 14, 1, h)
			if err != nil {
				t.Fatal(err)
			}
			native, err := txsampler.Run(name, txsampler.Options{Threads: 14, Seed: 1, Hybrid: h})
			if err != nil {
				t.Fatal(err)
			}
			if res.NativeCycles != native.ElapsedCycles {
				t.Errorf("%s under %v: native makespan %d, txsampler.Run %d", name, h, res.NativeCycles, native.ElapsedCycles)
			}
		}
	}
}

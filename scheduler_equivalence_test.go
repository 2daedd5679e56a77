package txsampler_test

// The run-quantum scheduler's hard constraint: for a fixed seed, the
// batched schedule must be indistinguishable from the per-op schedule
// (Quantum=1, the debug knob). Every registered HTMBench workload is
// run both ways and must produce identical ground truth, identical
// clocks, and a byte-identical serialized profile database.

import (
	"bytes"
	"reflect"
	"testing"

	"txsampler"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
)

func TestSchedulerQuantumEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, wl := range htmbench.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			requireQuantumInvariant(t, wl.Name, txsampler.Options{Threads: 4, Seed: 5, Profile: true})
		})
	}
	// Oversubscribed 14-thread runs, where most gate passes are
	// spin-wait loads that the batched schedule sleeps through, and the
	// rtm modes whose wait loops sleep too.
	for _, c := range []struct {
		label, program string
		opts           txsampler.Options
	}{
		{"14t", "synchro/linkedlist", txsampler.Options{}},
		{"14t", "app/leveldb", txsampler.Options{}},
		{"14t", "micro/false-sharing", txsampler.Options{}},
		{"14t", "app/avltree", txsampler.Options{}},
		{"14t-elide", "elide/syscall-section", txsampler.Options{Elision: machine.ElisionOn}},
		{"14t-stm-fallback", "synchro/linkedlist", txsampler.Options{Hybrid: machine.HybridStmFallback}},
		{"14t-serialize-on-conflict", "micro/true-sharing", txsampler.Options{Hybrid: machine.HybridSerializeOnConflict}},
		{"14t-pmem", "pmem/kv", txsampler.Options{Pmem: pmem.Config{Enabled: true}}},
	} {
		c := c
		t.Run(c.label+"/"+c.program, func(t *testing.T) {
			t.Parallel()
			c.opts.Threads, c.opts.Seed, c.opts.Profile = 14, 5, true
			requireQuantumInvariant(t, c.program, c.opts)
		})
	}
}

// requireQuantumInvariant runs program under the per-op schedule and
// the machine's default quantum and requires identical results.
func requireQuantumInvariant(t *testing.T, program string, opts txsampler.Options) {
	t.Helper()
	opts.Quantum = 1
	perOp, err := txsampler.Run(program, opts)
	if err != nil {
		t.Fatalf("per-op: %v", err)
	}
	opts.Quantum = 0 // machine default (batched)
	batched, err := txsampler.Run(program, opts)
	if err != nil {
		t.Fatalf("batched: %v", err)
	}

	if perOp.ElapsedCycles != batched.ElapsedCycles || perOp.TotalCycles != batched.TotalCycles {
		t.Errorf("clocks diverge: elapsed %d vs %d, total %d vs %d",
			perOp.ElapsedCycles, batched.ElapsedCycles, perOp.TotalCycles, batched.TotalCycles)
	}
	if !reflect.DeepEqual(perOp.GroundTruth, batched.GroundTruth) {
		t.Errorf("ground truth diverges:\nper-op:  %+v\nbatched: %+v",
			perOp.GroundTruth, batched.GroundTruth)
	}
	if !bytes.Equal(serialize(t, perOp.Report), serialize(t, batched.Report)) {
		t.Error("serialized profile databases differ between quantum 1 and batched")
	}
}

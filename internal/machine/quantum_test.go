package machine

// Equivalence of the run-quantum scheduler with the per-op schedule:
// Quantum=1 hands the baton on after every operation (the canonical
// smallest-clock schedule), and any larger quantum must reproduce it
// exactly — same sample stream, same clocks, same ground truth.

import (
	"fmt"
	"testing"
)

type quantumRun struct {
	samples       []*Sample
	elapsed       uint64
	total         uint64
	commits       []uint64
	aborts        []uint64
	interleavings uint64
	spins         uint64
}

func TestQuantumSampleStreamEquivalence(t *testing.T) {
	perOp := runContended(t, contendedConfig(1, 512), 200)
	for _, quantum := range []int{2, 64, 0 /* DefaultQuantum */} {
		got := runContended(t, contendedConfig(quantum, 512), 200)
		requireSameRun(t, fmt.Sprintf("quantum %d vs per-op", quantum), got, perOp)
	}
}

// TestQuantumValidation covers the new Config knob's edges.
func TestQuantumValidation(t *testing.T) {
	if err := (Config{Quantum: -1}).Validate(); err == nil {
		t.Fatal("negative quantum accepted")
	}
	if got := (Config{}).withDefaults().Quantum; got != DefaultQuantum {
		t.Fatalf("zero quantum defaulted to %d, want %d", got, DefaultQuantum)
	}
}

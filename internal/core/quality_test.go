package core

import (
	"reflect"
	"testing"

	"txsampler/internal/faults"
)

// TestDataQualityMerge: merging accumulates every counter, including
// the nested fault-injection stats.
func TestDataQualityMerge(t *testing.T) {
	a := DataQuality{MalformedSamples: 1, UnresolvedInTx: 2, InconsistentState: 3, TruncatedPaths: 4,
		Injected: faults.Stats{SpuriousAborts: 5}}
	b := DataQuality{MalformedSamples: 10, UnresolvedInTx: 20, InconsistentState: 30, TruncatedPaths: 40,
		Injected: faults.Stats{SpuriousAborts: 50}}
	a.Merge(b)
	if a.MalformedSamples != 11 || a.UnresolvedInTx != 22 || a.InconsistentState != 33 || a.TruncatedPaths != 44 {
		t.Fatalf("merged = %+v", a)
	}
	if a.Injected.SpuriousAborts != 55 {
		t.Fatalf("injected stats not merged: %+v", a.Injected)
	}
	// Degraded excludes the (fault-free-possible) truncations.
	if got := a.Degraded(); got != 11+22+33+55 {
		t.Fatalf("Degraded() = %d, want %d", got, 11+22+33+55)
	}
}

// TestMergeCoversEveryField: Merge into the zero value reproduces a
// value whose every counter is distinct, for the machine's fault
// stats, the network fault stats and the data-quality record, so a
// counter a Merge forgets, or adds into the wrong field, shows.
func TestMergeCoversEveryField(t *testing.T) {
	checkMerge(t, (*faults.Stats).Merge)
	checkMerge(t, (*faults.NetStats).Merge)
	checkMerge(t, (*DataQuality).Merge)
}

func checkMerge[T any](t *testing.T, merge func(dst *T, src T)) {
	t.Helper()
	var full, got T
	next := uint64(0)
	fillDistinct(t, reflect.ValueOf(&full).Elem(), &next)
	merge(&got, full)
	if !reflect.DeepEqual(got, full) {
		t.Errorf("%T: Merge into the zero value gave %+v, want %+v", full, got, full)
	}
}

// fillDistinct sets every uint64 field under v, nested structs
// included, to the next value after *next.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			*next++
			f.SetUint(*next)
		case reflect.Struct:
			fillDistinct(t, f, next)
		default:
			t.Fatalf("%s.%s is a %v, not a summed counter", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

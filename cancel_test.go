package txsampler_test

// Cooperative cancellation through the public API: a canceled profiled
// run returns a non-nil partial Result alongside the error, and the
// Partial-stamped profile round-trips through the crash-safe store.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"txsampler"
	"txsampler/internal/machine"
	"txsampler/internal/profile"
)

func TestCanceledRunYieldsPartialProfile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := txsampler.Run("stamp/vacation", txsampler.Options{
		Threads: 4, Seed: 1, Profile: true, Context: ctx,
	})
	if !errors.Is(err, txsampler.ErrCanceled) || !errors.Is(err, machine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled cause", err)
	}
	if res == nil || res.Report == nil {
		t.Fatal("canceled profiled run returned no partial result")
	}
	if !res.Report.Partial {
		t.Fatal("canceled report not marked Partial")
	}

	// The partial report persists through the atomic store and Load
	// reports its stamp.
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := profile.FromReport(res.Report).Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := profile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Partial || !db.Report().Partial {
		t.Fatal("partial stamp lost in round trip")
	}
}

func TestCanceledNativeRunReturnsError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Enough iterations that the deadline fires mid-run on any machine.
	_, err := txsampler.Run("stamp/labyrinth", txsampler.Options{
		Threads: 8, Seed: 2, Context: ctx,
	})
	if err != nil && !errors.Is(err, txsampler.ErrCanceled) {
		t.Fatalf("err = %v, want nil or ErrCanceled", err)
	}
}

func TestUncanceledContextDoesNotPerturbRun(t *testing.T) {
	base, err := txsampler.Run("micro/low-abort", txsampler.Options{Threads: 4, Seed: 9, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := txsampler.Run("micro/low-abort", txsampler.Options{
		Threads: 4, Seed: 9, Profile: true, Context: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.ElapsedCycles != withCtx.ElapsedCycles || base.TotalCycles != withCtx.TotalCycles {
		t.Fatalf("context plumbing perturbed the run: (%d,%d) vs (%d,%d)",
			base.ElapsedCycles, base.TotalCycles, withCtx.ElapsedCycles, withCtx.TotalCycles)
	}
	if !reflect.DeepEqual(base.GroundTruth, withCtx.GroundTruth) {
		t.Fatalf("ground truth diverged:\n%+v\n%+v", base.GroundTruth, withCtx.GroundTruth)
	}
	if withCtx.Report.Partial {
		t.Fatal("completed run marked Partial")
	}
}

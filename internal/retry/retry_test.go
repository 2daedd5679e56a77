package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestDelayGrowsExponentiallyUncapped(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 800, 1600}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDelayDefaults(t *testing.T) {
	// The zero policy is the campaign runner's: 100ms, doubling.
	p := Policy{}
	want := []time.Duration{100, 200, 400}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Errorf("zero policy Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDelayJitterBoundsAndDeterminism(t *testing.T) {
	seq := []float64{0, 0.999, 0.5}
	i := 0
	p := Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5,
		Rand: func() float64 { v := seq[i%len(seq)]; i++; return v }}
	lo := time.Duration(float64(100*time.Millisecond) * 0.5)
	for k := 0; k < 3; k++ {
		d := p.Delay(1)
		if d < lo || d > 100*time.Millisecond {
			t.Errorf("jittered delay %v outside [%v, 100ms]", d, lo)
		}
	}
	// Nil Rand still jitters, deterministically (mid-range).
	p.Rand = nil
	if a, b := p.Delay(1), p.Delay(1); a != b {
		t.Errorf("nil-Rand jitter is not deterministic: %v vs %v", a, b)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	var retried []int
	calls := 0
	p := Policy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
		Sleep:   func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
		OnRetry: func(a int, _ error, _ time.Duration) { retried = append(retried, a) },
	}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	wantSleeps := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(wantSleeps) || slept[0] != wantSleeps[0] || slept[1] != wantSleeps[1] {
		t.Errorf("slept = %v, want %v", slept, wantSleeps)
	}
	if len(retried) != 2 || retried[0] != 1 || retried[1] != 2 {
		t.Errorf("OnRetry attempts = %v, want [1 2]", retried)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	p := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(context.Background(), func(context.Context) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	fatal := errors.New("fatal")
	p := Policy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(context.Background(), func(context.Context) error { calls++; return Permanent(fatal) })
	if !errors.Is(err, fatal) {
		t.Fatalf("Do = %v, want %v", err, fatal)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
	if !IsPermanent(Permanent(fatal)) || IsPermanent(fatal) {
		t.Error("IsPermanent misclassifies")
	}
}

func TestDoHonorsAfterHint(t *testing.T) {
	var slept []time.Duration
	calls := 0
	p := Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 1 {
			return After(errors.New("shed"), 750*time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(slept) != 1 || slept[0] != 750*time.Millisecond {
		t.Errorf("slept = %v, want [750ms] (server hint must win)", slept)
	}
	if After(nil, time.Second) != nil {
		t.Error("After(nil) != nil")
	}
}

func TestDoCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 3}
	calls := 0
	err := p.Do(ctx, func(context.Context) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do on canceled ctx = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("op ran %d times on a canceled context", calls)
	}
}

func TestDoCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel() // cancel between attempt and backoff sleep
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestSleepContextAware(t *testing.T) {
	if err := sleep(context.Background(), 0); err != nil {
		t.Errorf("sleep(0) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("sleep on canceled ctx = %v", err)
	}
	start := time.Now()
	if err := sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("sleep(1ms) = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("sleep overslept wildly")
	}
}

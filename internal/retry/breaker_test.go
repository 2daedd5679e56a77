package retry

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives a Breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newBreaker(c *fakeClock, thr int, cd time.Duration) *Breaker {
	return &Breaker{Threshold: thr, Cooldown: cd, Now: c.now}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(clk, 3, time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow before threshold: %v", err)
		}
		b.Record(false)
	}
	if b.Open() {
		t.Fatal("open before threshold")
	}
	b.Record(false)
	if !b.Open() {
		t.Fatal("not open after threshold failures")
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}
	if rem := b.RemainingCooldown(); rem != time.Second {
		t.Errorf("RemainingCooldown = %v, want 1s", rem)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(clk, 1, time.Second)
	b.Record(false) // opens
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	// Only one probe is admitted until it settles.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrOpen", err)
	}
	// Failed probe re-opens for a fresh cooldown.
	b.Record(false)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow after failed probe = %v, want ErrOpen", err)
	}
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(true)
	if b.Open() {
		t.Fatal("open after successful probe")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after close: %v", err)
	}
	if rem := b.RemainingCooldown(); rem != 0 {
		t.Errorf("RemainingCooldown when closed = %v, want 0", rem)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(clk, 2, time.Second)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	if b.Open() {
		t.Fatal("streak did not reset on success")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < 5; i++ {
		b.Record(false)
	}
	if !b.Open() {
		t.Fatal("default threshold (5) did not open")
	}
	if rem := b.RemainingCooldown(); rem <= 0 || rem > time.Second {
		t.Errorf("default cooldown remaining = %v, want (0, 1s]", rem)
	}
}

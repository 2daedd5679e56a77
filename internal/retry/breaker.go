package retry

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Breaker.Allow while the breaker rejects
// calls. Callers that want to keep trying should treat it as
// retryable with the breaker's RemainingCooldown as the delay.
var ErrOpen = errors.New("retry: circuit breaker open")

// Breaker is a per-peer circuit breaker: a streak of consecutive
// failures opens it, rejecting calls without touching the peer for a
// cooldown; after the cooldown a single half-open probe is let
// through, and its outcome closes or re-opens the circuit. The fleet
// uploader keeps one per node so a dead daemon costs each node one
// probe per cooldown instead of a full retry storm.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the
	// breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 1s).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time

	mu       sync.Mutex
	failures int
	open     bool
	openedAt time.Time
	probing  bool
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return time.Second
	}
	return b.Cooldown
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// Allow reports whether a call may proceed. While open it returns
// ErrOpen until the cooldown elapses, then admits exactly one
// half-open probe; further calls keep getting ErrOpen until Record
// settles the probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if b.probing || b.now().Sub(b.openedAt) < b.cooldown() {
		return ErrOpen
	}
	b.probing = true
	return nil
}

// Record reports one call outcome. Success closes the breaker and
// clears the failure streak; failure extends the streak and opens (or
// re-opens, after a failed probe) the circuit once the streak reaches
// Threshold.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.failures = 0
		b.open = false
		b.probing = false
		return
	}
	b.failures++
	if b.probing {
		// Failed half-open probe: re-open for a fresh cooldown.
		b.probing = false
		b.openedAt = b.now()
		return
	}
	if !b.open && b.failures >= b.threshold() {
		b.open = true
		b.openedAt = b.now()
	}
}

// RemainingCooldown returns how long until the next half-open probe
// is admitted (0 when closed or already due).
func (b *Breaker) RemainingCooldown() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return 0
	}
	rem := b.cooldown() - b.now().Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}

// Open reports whether the breaker currently rejects calls.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

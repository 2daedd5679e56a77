// Package retry is the shared client-resilience layer: bounded
// exponential backoff with optional jitter, context-aware sleeping,
// permanent-error short-circuiting, server-directed delay hints
// (Retry-After), and a per-peer circuit breaker. The campaign runner
// and the fleet uploader both retry through Policy.Do, so one retry
// loop — with one deterministic-delay contract — serves every
// degraded path in the system.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Policy describes one bounded retry schedule. The zero value retries
// nothing (a single attempt) with the default 100ms base delay; all
// fields are optional.
type Policy struct {
	// MaxAttempts is the total number of attempts Do makes (first try
	// included). <= 0 means exactly one attempt.
	MaxAttempts int
	// BaseDelay is the delay after the first failure (default 100ms);
	// each further failure doubles it.
	BaseDelay time.Duration
	// Jitter randomizes each delay down into [(1-Jitter)*d, d]. 0 (the
	// default) keeps delays fully deterministic — the campaign runner
	// relies on that — while distributed clients should set ~0.2 so a
	// fleet of nodes rejected together does not retry together.
	Jitter float64
	// Rand supplies jitter randomness in [0,1); nil uses a fixed
	// mid-range value so even jittered delays are reproducible unless
	// the caller wires a real (or seeded) source.
	Rand func() float64
	// Sleep waits between attempts; nil uses a context-aware timer.
	// Tests inject a recorder here.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes every scheduled retry: the
	// attempt that just failed (1-based), its error, and the delay
	// about to be slept. Callers hang metrics and logging off it.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// Delay returns the backoff delay after the given 1-based failed
// attempt: BaseDelay * 2^(attempt-1), jittered down by up to Jitter.
func (p Policy) Delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := math.Ldexp(float64(base), attempt-1)
	if p.Jitter > 0 {
		u := 0.5
		if p.Rand != nil {
			u = p.Rand()
		}
		d -= p.Jitter * d * u
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, returns a permanent error, exhausts
// MaxAttempts, or the context is canceled. A retryable error's delay
// is Delay(attempt) unless the error carries an After hint, which
// wins (the server knows its own backlog better than the client's
// curve does).
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("retry: canceled before attempt %d: %w", attempt, err)
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt >= attempts {
			return err
		}
		d := p.Delay(attempt)
		var hint *afterError
		if errors.As(err, &hint) && hint.delay > 0 {
			d = hint.delay
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		wait := p.Sleep
		if wait == nil {
			wait = sleep
		}
		if serr := wait(ctx, d); serr != nil {
			return fmt.Errorf("retry: canceled during backoff after attempt %d: %w (last error: %v)", attempt, serr, err)
		}
	}
}

// sleep waits d or until the context is done, returning the context's
// error in the latter case.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SeededRand returns a deterministic jitter source for Policy.Rand:
// an xorshift64* stream in [0,1) that is safe for concurrent use.
// Distinct seeds give distinct streams, so a fleet of clients can
// jitter apart while each stays reproducible.
func SeededRand(seed int64) func() float64 {
	var mu sync.Mutex
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / float64(1<<53)
	}
}

// permanentError marks an error Do must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns err as-is.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked Permanent.
func IsPermanent(err error) bool {
	var perm *permanentError
	return errors.As(err, &perm)
}

// afterError carries a server-directed retry delay.
type afterError struct {
	err   error
	delay time.Duration
}

func (e *afterError) Error() string { return e.err.Error() }
func (e *afterError) Unwrap() error { return e.err }

// After wraps a retryable err with an explicit delay before the next
// attempt (an HTTP 429's Retry-After). A nil err stays nil.
func After(err error, delay time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, delay: delay}
}

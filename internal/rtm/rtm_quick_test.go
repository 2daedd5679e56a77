package rtm

import (
	"testing"
	"testing/quick"

	"txsampler/internal/machine"
)

// Property: critical sections serialize correctly under ANY retry
// policy — the shared counter is always exact, whatever combination of
// retries, capacity policy, backoff, and thread count is in force.
func TestQuickPolicySpaceSerializability(t *testing.T) {
	f := func(maxRetries, backoff uint8, retryCap bool, threads8, seed8 uint8) bool {
		threads := int(threads8)%6 + 2
		m := machine.New(machine.Config{Threads: threads, Seed: int64(seed8)})
		l := NewLock(m)
		l.Policy = Policy{
			MaxRetries:      int(maxRetries) % 8,
			RetryOnCapacity: retryCap,
			BackoffBase:     int(backoff) % 60,
		}
		a := m.Mem.AllocWords(1)
		const per = 25
		if err := m.RunAll(func(th *machine.Thread) {
			for i := 0; i < per; i++ {
				l.Run(th, func() {
					v := th.Load(a)
					th.Compute(8)
					th.Store(a, v+1)
				})
			}
		}); err != nil {
			return false
		}
		if m.Mem.Load(a) != uint64(threads*per) {
			return false
		}
		// Every critical section ended exactly one way.
		return l.Stats.Commits+l.Stats.Fallbacks == uint64(threads*per)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: HLE also serializes exactly for any seed/thread mix.
func TestQuickHLESerializability(t *testing.T) {
	f := func(threads8, seed8 uint8) bool {
		threads := int(threads8)%6 + 2
		m := machine.New(machine.Config{Threads: threads, Seed: int64(seed8), StartSkew: 256})
		l := NewLock(m)
		a := m.Mem.AllocWords(1)
		const per = 25
		if err := m.RunAll(func(th *machine.Thread) {
			for i := 0; i < per; i++ {
				l.RunHLE(th, func() {
					v := th.Load(a)
					th.Compute(8)
					th.Store(a, v+1)
				})
			}
		}); err != nil {
			return false
		}
		return m.Mem.Load(a) == uint64(threads*per)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the state word is always zero outside critical sections
// and never shows fallback and HTM simultaneously inside.
func TestQuickStateWordInvariants(t *testing.T) {
	f := func(seed8 uint8) bool {
		m := machine.New(machine.Config{Threads: 4, Seed: int64(seed8)})
		l := NewLock(m)
		a := m.Mem.AllocWords(1)
		ok := true
		if err := m.RunAll(func(th *machine.Thread) {
			for i := 0; i < 20; i++ {
				l.Run(th, func() {
					s := th.State
					if !IsInCS(s) || (IsInHTM(s) && IsInFallback(s)) {
						ok = false
					}
					th.Add(a, 1)
				})
				if th.State != 0 {
					ok = false
				}
				th.Compute(15)
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Lock elision: a sync.Mutex-shaped lock whose critical sections can
// run through the TM runtime instead of serializing. With elision on
// (machine.Config.Elision), Run maps the section onto the full
// fallback ladder — hardware attempt with retry, then the
// configured hybrid STM slow path, then actually acquiring the lock —
// and every state-word update carries the InElision bit so the
// profiler classifies the section's samples as elided-htm /
// elided-stm / elided-lock. With elision off the lock is a plain
// spinlock and the machine is bit-for-bit the pre-elision machine
// (samples classify as plain ModeLock).
//
// Determinism: the elision decision is a per-machine configuration
// constant, the shared ladder reads and writes the software-TM
// metadata only inside machine.Thread.Exclusive sections, and its
// statistics are write-only counters, so schedules stay
// seed-deterministic and quantum-invariant in both modes.
package rtm

import (
	"strings"

	"txsampler/internal/machine"
)

// ElisionFramePrefix prefixes the runtime frame an ElidedLock pushes
// around its critical sections: the frame is ElisionFramePrefix +
// Site, which is how the analyzer aggregates samples and abort weight
// per lock site for the "would elision win?" verdict.
const ElisionFramePrefix = "elide:"

// ElisionSiteOf extracts the lock-site name from a frame function
// name, reporting whether the frame is an elided-lock frame.
func ElisionSiteOf(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, ElisionFramePrefix); ok {
		return rest, true
	}
	return "", false
}

// ElidedLock is a mutex whose critical sections are candidates for
// lock elision. Each lock names a Site (the per-lock-site aggregation
// key of the verdict) and owns a private Lock as its speculation
// engine, so per-site Stats are exact ground truth.
type ElidedLock struct {
	// Site names the lock site in profiles and verdicts.
	Site string
	// Elide reports whether this lock speculates. NewElidedLock copies
	// it from the machine's Elision configuration; tests may override
	// it before first use (never mid-run).
	Elide bool

	inner *Lock
}

// NewElidedLock allocates an elidable lock on machine m. Whether it
// actually elides follows m's Elision configuration; the speculation
// ladder (retry policy, hybrid slow path) follows m's Hybrid
// configuration via the inner Lock.
func NewElidedLock(m *machine.Machine, site string) *ElidedLock {
	e := &ElidedLock{
		Site:  site,
		Elide: m.Config().Elision == machine.ElisionOn,
		inner: NewLock(m),
	}
	e.inner.elided = e.Elide
	return e
}

// Inner exposes the speculation engine for policy overrides and exact
// per-site statistics (Commits = elided-htm sections, StmCommits =
// elided-stm, Fallbacks = lock acquisitions).
func (e *ElidedLock) Inner() *Lock { return e.inner }

// Run executes body as one critical section of this lock, under an
// elide:<site> frame. Eliding, it is Lock.Run's full fallback ladder;
// not eliding, it is a plain lock acquisition. Like Run, the body
// must be idempotent up to its memory writes when eliding, and the
// lock is not reentrant.
func (e *ElidedLock) Run(t *machine.Thread, body func()) {
	t.Func(ElisionFramePrefix+e.Site, func() {
		if e.Elide {
			for !e.inner.critical(t, body) {
			}
			return
		}
		for !e.inner.plain(t, body) {
		}
	})
}

// Lock acquires the lock non-speculatively, pairing with Unlock — the
// sync.Mutex shape for code that cannot express its critical section
// as a closure. Elision needs the closure: a speculative attempt must
// be able to discard and re-execute the whole section, and control
// flow that already returned from Lock cannot be rolled back. Lock
// sites wanting the elision verdict use Run.
func (e *ElidedLock) Lock(t *machine.Thread) {
	l := e.inner
	l.resetRunOn(t)
	t.State = InCS | InLockWaiting
	l.acquire(t)
	if l.Hybrid != machine.HybridLockOnly {
		// Same protocol as the ladder's fallback rung: software
		// writers that entered their write phase before the CAS must
		// drain before the holder owns memory — their eager writes
		// are invisible to a non-transactional reader until then.
		l.waitQuiesce(t)
	}
	t.State = InCS | InFallback
}

// Unlock releases a lock acquired with Lock.
func (e *ElidedLock) Unlock(t *machine.Thread) {
	l := e.inner
	t.State = InCS | InOverhead
	t.Store(l.Addr, 0)
	t.State = 0
	l.Stats.Fallbacks++
}

// plain runs one plain-lock execution attempt of the section —
// ElidedLock's non-eliding mode. It mirrors critical's fallback tail
// (including the durable-commit epilogue and its crash re-execution
// contract) without ever speculating; the section's samples classify
// as ModeLock.
func (l *Lock) plain(t *machine.Thread, body func()) bool {
	l.resetRunOn(t)
	t.PmemSectionBegin()
	t.State = l.cs(InCS | InLockWaiting)
	l.acquire(t)
	if l.Hybrid != machine.HybridLockOnly {
		// A plain-mode lock can share its word with speculating
		// sections (Lock/Unlock callers, crash re-execution), so it
		// honors the same writer-drain protocol as the fallback rung.
		l.waitQuiesce(t)
	}
	t.State = l.cs(InCS | InFallback)
	body()
	t.State = l.cs(InCS | InOverhead)
	t.Store(l.Addr, 0)
	ok := l.persist(t)
	t.State = 0
	l.Stats.Fallbacks++
	return ok
}

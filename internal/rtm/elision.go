// Lock elision: a mutex whose critical sections can run through the
// TM runtime instead of serializing. With elision on
// (machine.Config.Elision), Run maps the section onto the full
// fallback ladder — hardware attempt with retry, then the
// configured hybrid STM slow path, then actually acquiring the lock —
// and every state-word update carries the InElision bit so the
// profiler classifies the section's samples as elided-htm /
// elided-stm / elided-lock. With elision off Run is the ladder's last
// rung alone, a plain lock acquisition (samples classify as plain
// ModeLock). Sections are closures: a speculative attempt must be able
// to discard and re-execute the whole section, which a Lock/Unlock
// pair that has already returned control cannot.
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

	inner *Lock
}

// NewElidedLock allocates an elidable lock on machine m. Whether it
// actually elides follows m's Elision configuration; the speculation
// ladder (retry policy, hybrid slow path) follows m's Hybrid
// configuration via the inner Lock.
func NewElidedLock(m *machine.Machine, site string) *ElidedLock {
	inner := NewLock(m)
	inner.elided = m.Config().Elision == machine.ElisionOn
	return &ElidedLock{Site: site, inner: inner}
}

// Inner exposes the speculation engine for policy overrides and exact
// per-site statistics (Commits = elided-htm sections, StmCommits =
// elided-stm, Fallbacks = lock acquisitions).
func (e *ElidedLock) Inner() *Lock { return e.inner }

// Run executes body as one critical section of this lock, under an
// elide:<site> frame. Eliding, it is Lock.Run's full fallback ladder;
// not eliding, it is the ladder's serializing tail alone, re-executed
// like the ladder after an injected pmem crash. Like Run, the body
// must be idempotent up to its memory writes when eliding, and the
// lock is not reentrant.
func (e *ElidedLock) Run(t *machine.Thread, body func()) {
	l := e.inner
	t.Func(ElisionFramePrefix+e.Site, func() {
		if l.elided {
			for !l.critical(t, body) {
			}
			return
		}
		for {
			t.PmemSectionBegin()
			if l.serialize(t, body) {
				return
			}
		}
	})
}

// Word-based undo-log STM: the instrumented software slow path of the
// hybrid-TM policies. A software transaction executes the critical
// section with per-access instrumentation (machine.SoftTx hooks in
// place of compiler-inserted read/write barriers): loads record an
// (address, value) pair in a read set; stores acquire a per-word
// write lock, log the old value in an undo log, and then write memory
// eagerly. Commit validates the read set — every read word must be
// unlocked (or owned by this transaction) and still hold the value
// observed — releases the locks, and is done; abort replays the undo
// log newest-first and retries after randomized backoff.
//
// Coexistence with hardware transactions and the global lock:
//
//   - The lock's cache line carries an "active software writers" word
//     next to the lock word. A software transaction's first store
//     bumps it; hardware transactions read it at begin (free: they
//     already subscribe to that line through the lock-word check) and
//     abort while it is non-zero, so a hardware commit can never have
//     observed a software transaction's eager, unvalidated writes.
//   - Software reads and eager writes go through ordinary thread
//     memory operations, so they conflict-doom any hardware
//     transaction speculating on the same words (requester wins).
//   - Write-phase entry and the global lock mutually exclude: the
//     first software store waits for the lock word to be free before
//     raising the writer count (checked in one Exclusive step), and
//     every lock acquisition (Lock.acquire: the fallback rung, RunHLE,
//     RunLocked, a non-eliding ElidedLock) waits for the writer count
//     to drain before touching memory. Read-only software transactions
//     instead check the lock word during validation.
//
// Word-lock ownership, the writer count, and undo/read-set peeking at
// commit run inside machine.Thread.Exclusive sections: they model the
// STM's own metadata operations, which on real hardware are ordinary
// atomics but here must execute at the thread's canonical scheduling
// position to keep runs byte-identical. Validation is value-based and
// so shares classic value-validation ABA blindness (a word changing
// and changing back between read and commit); the machine's workloads
// are monotone counters and pointers, where ABA does not occur.
package rtm

import (
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/telemetry"
)

// Simulated costs of the instrumented path, in cycles. These model
// the per-access software overhead the profiler's "instrumentation
// overhead" metric (stm ÷ htm cycles per call path) is built to
// expose; see DESIGN.md §12.
const (
	stmBeginCost    = 20 // attempt setup: tx descriptor, hook install
	stmReadCost     = 4  // read barrier: read-set append
	stmWriteCost    = 10 // write barrier: word lock + undo log
	stmValidateCost = 3  // per read-set entry at commit
)

// stmAbortSentinel unwinds the workload body out of an aborted
// software transaction, mirroring the machine's txAbortSentinel for
// hardware aborts. It never escapes runSTM.
type stmAbortSentinel struct{}

// stmState is the software-transaction side of a Lock.
type stmState struct {
	// active is the simulated "software writers present" word,
	// allocated on the lock's own cache line (lock word + 1) so that
	// hardware transactions subscribe to it for free.
	active mem.Addr

	// owner maps a word address to the thread holding its write lock.
	// Mutated only inside Exclusive sections (see package comment).
	owner map[mem.Addr]int

	// writers counts software transactions in their write phase; the
	// Go-side authority a new lock holder drains against. The
	// simulated active word mirrors it for hardware subscription.
	writers int
}

func (s *stmState) init(lockAddr mem.Addr) {
	s.active = lockAddr.Offset(1)
	s.owner = make(map[mem.Addr]int)
}

// stmRead is one read-set entry: the value observed at an address.
type stmRead struct {
	addr mem.Addr
	val  mem.Word
}

// stmUndo is one undo-log entry: the pre-transaction value of a word
// this transaction write-locked. The undo log doubles as the write
// set (exactly one entry per acquired word lock).
type stmUndo struct {
	addr mem.Addr
	old  mem.Word
}

// stmTx is one software-transaction attempt. It implements
// machine.SoftTx; the machine delivers the body's non-transactional
// memory accesses to it while installed.
type stmTx struct {
	l     *Lock
	t     *machine.Thread
	reads []stmRead
	undo  []stmUndo
	wrote bool // write phase entered (writer count raised)
}

// OnLoad implements machine.SoftTx: the read barrier. Conflict
// detection is lazy — a locked or since-overwritten word is caught by
// commit-time validation, not here — so the barrier is one append.
func (x *stmTx) OnLoad(a mem.Addr, v mem.Word) {
	x.reads = append(x.reads, stmRead{addr: a, val: v})
	x.t.Compute(stmReadCost)
}

// OnStore implements machine.SoftTx: the write barrier. It acquires
// the word's write lock, logs the old value, and lets the eager write
// proceed; a word locked by another transaction aborts this one.
func (x *stmTx) OnStore(a mem.Addr) {
	if !x.wrote {
		x.enterWritePhase()
	}
	t, l := x.t, x.l
	acquired, conflict := false, false
	var old mem.Word
	t.Exclusive(func() {
		own, held := l.stm.owner[a]
		switch {
		case !held:
			l.stm.owner[a] = t.ID
			old = t.Machine().Mem.Load(a) // peek for the undo log
			acquired = true
		case own != t.ID:
			conflict = true
		}
	})
	t.Compute(stmWriteCost)
	if conflict {
		panic(stmAbortSentinel{})
	}
	if acquired {
		x.undo = append(x.undo, stmUndo{addr: a, old: old})
		// Upgrade check: a read of this word recorded before the lock
		// was acquired must still match the value captured for the
		// undo log — otherwise another transaction committed between
		// read and write and this one is doomed. Commit validation
		// skips self-owned words, so staleness must be caught here
		// (reads after this point observe our own eager writes). The
		// undo entry is already appended, so rollback releases the
		// lock we just took.
		for _, r := range x.reads {
			if r.addr == a && r.val != old {
				panic(stmAbortSentinel{})
			}
		}
	}
}

// enterWritePhase raises the lock's software-writer count before the
// transaction's first eager write. The lock-word check and the count
// increment form one Exclusive step, so a lock holder can
// never interleave between them; the simulated active word is bumped
// right after, dooming every subscribed hardware transaction before
// the first dirty word becomes visible.
func (x *stmTx) enterWritePhase() {
	t, l := x.t, x.l
	for {
		entered := false
		t.Exclusive(func() {
			if t.Machine().Mem.Load(l.Addr) == 0 {
				l.stm.writers++
				entered = true
			}
		})
		if entered {
			break
		}
		// A lock holder owns memory; wait it out before
		// instrumenting writes.
		t.State = l.cs(InCS | InLockWaiting)
		t.Compute(2)
		t.State = l.cs(InCS | InSTM)
	}
	x.wrote = true
	// The active word shares the lock's cache line; its bump executes
	// under a dedicated runtime frame (no source-site annotation, like
	// tm_begin's lock-word spin) so the metadata traffic is never
	// attributed to the program site whose store triggered it.
	t.Func("stm_write_phase", func() { t.AtomicAdd(l.stm.active, 1) })
}

// validate checks the read set in one Exclusive step: every read word
// must be unlocked (or locked by this transaction, whose own eager
// write is the observed value) and still hold the value recorded by
// the read barrier. Read-only transactions additionally require the
// global lock to be free — a holder may be mid-section, and a reader
// cannot tell whether its reads straddled the holder's writes.
// Writers skip that check: write-phase entry already excluded the
// holder, and a holder spinning on the writer drain has not written.
func (x *stmTx) validate() bool {
	t, l := x.t, x.l
	t.Compute(stmValidateCost * (1 + len(x.reads)))
	ok := true
	t.Exclusive(func() {
		mm := t.Machine().Mem
		if !x.wrote && mm.Load(l.Addr) != 0 {
			ok = false
			return
		}
		for _, r := range x.reads {
			if own, held := l.stm.owner[r.addr]; held {
				if own != t.ID {
					ok = false
					return
				}
				// Own write lock: the value diverged from the read
				// because this transaction wrote it, which is fine —
				// nobody else can have touched it since.
				continue
			}
			if mm.Load(r.addr) != r.val {
				ok = false
				return
			}
		}
	})
	return ok
}

// release drops this transaction's word locks and leaves the write
// phase, keeping memory as it stands (commit). Abort paths must undo
// first.
func (x *stmTx) release() {
	t, l := x.t, x.l
	t.Exclusive(func() {
		for _, u := range x.undo {
			delete(l.stm.owner, u.addr)
		}
		if x.wrote {
			l.stm.writers--
		}
	})
	if x.wrote {
		t.Func("stm_write_phase", func() { t.AtomicAdd(l.stm.active, -1) })
	}
}

// rollback restores every written word to its pre-transaction value,
// newest first, then releases. The undo stores are ordinary thread
// stores: they conflict-doom any hardware transaction that speculated
// on a dirty value, so no hardware commit can retain one.
func (x *stmTx) rollback() {
	for i := len(x.undo) - 1; i >= 0; i-- {
		x.t.Store(x.undo[i].addr, x.undo[i].old)
	}
	x.release()
}

// runSTM executes body as an instrumented software transaction,
// retrying per policy. It returns true when an attempt committed and
// false when the slow path gave up (the caller then serializes
// through the global lock). Entered with the thread outside any
// transaction; leaves with t.State == 0 on commit.
func (l *Lock) runSTM(t *machine.Thread, body func()) bool {
	attempts := stmRetries
	if l.hybrid == machine.HybridSerializeOnConflict {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		t.State = l.cs(InCS | InOverhead)
		t.Compute(stmBeginCost)
		begin := t.Clock()
		t.TraceEvent(telemetry.Event{
			Kind: telemetry.KindInstant, TS: begin,
			TID: int32(t.ID), Name: "stm-begin",
		})
		x := &stmTx{l: l, t: t}
		t.State = l.cs(InCS | InSTM)
		t.SetSoftTx(x)
		aborted := runSTMBody(t, x, body)
		t.SetSoftTx(nil)
		if !aborted {
			vstart := t.Clock()
			committed := x.validate()
			t.TraceEvent(telemetry.Event{
				Kind: telemetry.KindSpan, TS: vstart, Dur: t.Clock() - vstart,
				TID: int32(t.ID), Name: "stm-validate",
			})
			if committed {
				x.release()
				t.State = l.cs(InCS | InOverhead)
				t.Compute(overheadCycles)
				t.TraceEvent(telemetry.Event{
					Kind: telemetry.KindSpan, TS: begin, Dur: t.Clock() - begin,
					TID: int32(t.ID), Name: "stm-commit",
				})
				l.emit(t, EventFallback) // the section ran non-speculatively
				t.State = 0
				l.Stats.StmCommits++
				return true
			}
			x.rollback()
		} else {
			x.rollback()
		}
		t.TraceEvent(telemetry.Event{
			Kind: telemetry.KindInstant, TS: t.Clock(),
			TID: int32(t.ID), Name: "stm-abort",
		})
		l.Stats.StmAborts++
		if attempt+1 < attempts && l.Policy.BackoffBase > 0 {
			t.State = l.cs(InCS | InOverhead)
			t.Compute(1 + t.Rand().Intn(l.Policy.BackoffBase<<uint(attempt)))
		}
	}
	l.Stats.StmFallbacks++
	return false
}

// runSTMBody runs the body with the interposer installed, recovering
// the STM abort sentinel. Hook state is re-armed by the caller's
// SetSoftTx(nil) even when the sentinel unwound mid-hook.
func runSTMBody(t *machine.Thread, x *stmTx, body func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stmAbortSentinel); ok {
				aborted = true
				// Uninstall before the caller's rollback stores so
				// the undo replay is not itself instrumented.
				t.SetSoftTx(nil)
				return
			}
			panic(r)
		}
	}()
	body()
	return false
}

// waitQuiesce spins a thread that has just taken the lock word until
// software write phases drain. New software writers wait on the (now
// held) lock word, so the count is monotone non-increasing here.
func (l *Lock) waitQuiesce(t *machine.Thread) {
	for {
		writers := 0
		t.Exclusive(func() { writers = l.stm.writers })
		if writers == 0 {
			return
		}
		t.Compute(2)
	}
}

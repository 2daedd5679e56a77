// Package rtm is the RTM runtime library workloads link against: the
// software side of Intel TSX lock elision. A critical section wrapped
// in Run (the paper's TM_BEGIN/TM_END) first waits for the global
// fallback lock to be free, then attempts the body as a hardware
// transaction that reads the lock word into its read set (so a
// fallback acquisition aborts it); after Policy.MaxRetries transient
// aborts — or immediately on a persistent abort — it falls back to
// acquiring the global lock and running the body non-speculatively.
//
// The package also implements the paper's ~21-line extension (§3.2):
// a thread-private state word recording whether the thread is in a
// critical section, transaction, fallback path, lock wait, or
// transaction-overhead code, exposed to the profiler through a query
// function. Updates inside the transaction roll back with it, so a
// post-abort handler observes the pre-transaction state, as on real
// hardware.
package rtm

import (
	"sync/atomic"

	"txsampler/internal/htm"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/telemetry"
)

// State word bits (paper §3.2).
const (
	// InCS: executing in a critical section.
	InCS uint32 = 1 << iota
	// InHTM: executing in a transaction path.
	InHTM
	// InFallback: executing in a fallback path.
	InFallback
	// InLockWaiting: waiting for the global lock to be available.
	InLockWaiting
	// InOverhead: initiating, retrying, or cleaning up a transaction.
	InOverhead
	// InSTM: executing in the instrumented software-transaction slow
	// path (the hybrid-TM extension; not part of the paper's Figure 4).
	InSTM
	// InFlush: executing the durable-commit persist epilogue of the
	// pmem tier — flushing logged lines, draining the persist fence,
	// writing the commit record (not part of the paper's Figure 4).
	InFlush
	// InElision: the critical section is an elided lock (an
	// ElidedLock running speculatively, not a TM_BEGIN section). The
	// bit qualifies whichever base bucket is set — HTM attempt, STM
	// slow path, fallback lock — so samples split into the
	// elided-htm/elided-stm/elided-lock modes. It is set outside the
	// hardware transaction (before XBEGIN), so the rolled-back state a
	// PMU handler observes still carries it.
	InElision
)

// The query functions of the profiler-facing state API (Figure 4).

// IsInCS reports whether the state word shows a critical section.
func IsInCS(s uint32) bool { return s&InCS != 0 }

// IsInFallback reports whether the state word shows the fallback path.
func IsInFallback(s uint32) bool { return s&InFallback != 0 }

// IsInLockWaiting reports whether the state word shows a lock wait.
func IsInLockWaiting(s uint32) bool { return s&InLockWaiting != 0 }

// IsInHTM reports whether the state word shows a transaction. A PMU
// handler never observes this bit set for the sampled thread — the
// interrupt's abort rolled the transactional update back — which is
// precisely why the profiler needs the LBR abort bit (Challenge I).
func IsInHTM(s uint32) bool { return s&InHTM != 0 }

// IsInSTM reports whether the state word shows the software slow
// path. Unlike InHTM, this bit survives PMU interrupts: the STM is
// plain instrumented software, so the handler observes it live.
func IsInSTM(s uint32) bool { return s&InSTM != 0 }

// IsInFlush reports whether the state word shows the persist epilogue.
// Like InSTM it survives PMU interrupts: the epilogue runs outside any
// hardware transaction, so the handler observes the bit live.
func IsInFlush(s uint32) bool { return s&InFlush != 0 }

// IsInElision reports whether the state word shows an elided-lock
// critical section. Set non-transactionally, so it survives PMU
// interrupts like InSTM and InFlush.
func IsInElision(s uint32) bool { return s&InElision != 0 }

// Mode is the execution-mode classification of one cycles sample
// under hybrid TM: the paper's Figure 4 buckets extended with the
// instrumented software path. ModeHTM is only observable through the
// LBR abort bit (the state word's InHTM bit rolls back); every other
// mode reads directly off the live state word.
type Mode uint8

const (
	// ModeNone: outside any critical section (the profiler's S
	// bucket).
	ModeNone Mode = iota
	// ModeHTM: inside a hardware transaction.
	ModeHTM
	// ModeSTM: inside an instrumented software transaction.
	ModeSTM
	// ModeLock: in the fallback path under the global lock.
	ModeLock
	// ModeWaiting: waiting for the global lock (or for software
	// writers to drain).
	ModeWaiting
	// ModeOverhead: transaction begin/retry/cleanup bookkeeping.
	ModeOverhead
	// ModeFlush: the durable-commit persist epilogue (flush, fence,
	// commit record) of the pmem tier — persistence stalls.
	ModeFlush
	// ModeElidedHTM: inside a hardware transaction speculating an
	// elided lock's critical section. A plain-lock section (elision
	// off, or a non-elidable lock) classifies as ModeLock instead.
	ModeElidedHTM
	// ModeElidedSTM: an elided lock's critical section running in the
	// instrumented software slow path.
	ModeElidedSTM
	// ModeElidedLock: an elided lock's critical section that exhausted
	// the speculation ladder and actually acquired the lock.
	ModeElidedLock

	// NumModes sizes confusion matrices over Mode.
	NumModes
)

var modeNames = [...]string{
	ModeNone: "none", ModeHTM: "htm", ModeSTM: "stm",
	ModeLock: "lock", ModeWaiting: "waiting", ModeOverhead: "overhead",
	ModeFlush: "flush", ModeElidedHTM: "elided-htm",
	ModeElidedSTM: "elided-stm", ModeElidedLock: "elided-lock",
}

func (m Mode) String() string {
	if int(m) >= len(modeNames) {
		return "invalid"
	}
	return modeNames[m]
}

// ModeOf classifies a sampled state word. inTx is the evidence that
// the sample interrupted a hardware transaction: the LBR abort bit
// for the profiler, the machine's ground truth for the validator.
// Order matters and mirrors the collector's Figure 4 switch: hardware
// evidence wins (the rolled-back state word cannot show InHTM), then
// the live software bits.
func ModeOf(state uint32, inTx bool) Mode {
	elided := IsInElision(state)
	switch {
	case inTx:
		if elided {
			return ModeElidedHTM
		}
		return ModeHTM
	case !IsInCS(state):
		return ModeNone
	case IsInFlush(state):
		return ModeFlush
	case IsInSTM(state):
		if elided {
			return ModeElidedSTM
		}
		return ModeSTM
	case IsInFallback(state):
		if elided {
			return ModeElidedLock
		}
		return ModeLock
	case IsInLockWaiting(state):
		return ModeWaiting
	default:
		return ModeOverhead
	}
}

// Policy controls the retry behaviour of a critical section.
type Policy struct {
	// MaxRetries bounds retries of transient (conflict/interrupt)
	// aborts before taking the fallback path. The paper's evaluation
	// uses 5.
	MaxRetries int
	// RetryOnCapacity, if set, also retries capacity aborts. The
	// paper's evaluation retries everything except persistent aborts
	// such as system calls (§7), so this defaults to true; TSX's
	// retry-bit heuristic would fall back immediately instead (see
	// the ablation benchmarks).
	RetryOnCapacity bool
	// MaxLockBusy bounds consecutive lock-busy aborts (the explicit
	// abort taken when the lock is observed held inside the
	// transaction) before giving up and falling back.
	MaxLockBusy int
	// BackoffBase is the unit of the randomized exponential backoff
	// inserted before conflict retries, in cycles. Without backoff,
	// colliding transactions retry in lockstep and cascade into the
	// fallback path (the "lemming effect"). Zero disables backoff.
	BackoffBase int

	// Adaptive enables storm shedding: when consecutive ambient aborts
	// (interrupt or spurious — aborts the application did not cause
	// and retrying cannot fix) reach StormThreshold without an
	// intervening commit, the lock concludes the machine is in a
	// transient-abort storm, sheds retries down to StormRetries, and
	// widens backoff, so threads stop burning cycles re-executing
	// doomed speculation and serialize through the fallback lock until
	// the storm passes. A commit ends storm mode.
	Adaptive bool
	// StormThreshold is the consecutive-ambient-abort count that
	// triggers storm mode. Zero means 16.
	StormThreshold int
	// StormRetries replaces MaxRetries while a storm is active. Zero
	// means 1.
	StormRetries int

	// StmRetries bounds software-transaction attempts before the
	// slow path gives up and takes the global lock (hybrid policies
	// only; HybridSerializeOnConflict always uses 1). Zero means 3.
	StmRetries int
}

// DefaultPolicy matches the paper's evaluation setup.
func DefaultPolicy() Policy {
	return Policy{MaxRetries: 5, RetryOnCapacity: true, MaxLockBusy: 50, BackoffBase: 30}
}

// AdaptivePolicy is DefaultPolicy plus storm shedding.
func AdaptivePolicy() Policy {
	p := DefaultPolicy()
	p.Adaptive = true
	p.StormThreshold = 16
	p.StormRetries = 1
	return p
}

func (p Policy) stormThreshold() int {
	if p.StormThreshold <= 0 {
		return 16
	}
	return p.StormThreshold
}

func (p Policy) stormRetries() int {
	if p.StormRetries <= 0 {
		return 1
	}
	return p.StormRetries
}

func (p Policy) stmRetries() int {
	if p.StmRetries <= 0 {
		return 3
	}
	return p.StmRetries
}

// Stats counts critical-section outcomes for one lock; exact ground
// truth, not sampled.
type Stats struct {
	Commits   uint64
	Fallbacks uint64
	Aborts    map[htm.Cause]uint64
	LockBusy  uint64 // explicit aborts because the lock was held

	// Adaptive-policy accounting (zero unless Policy.Adaptive).
	StormsDetected uint64 // transitions into storm mode
	StormFallbacks uint64 // fallbacks taken while a storm was active

	// Hybrid-TM accounting (zero unless Lock.Hybrid enables the STM
	// slow path).
	StmCommits   uint64 // software transactions committed
	StmAborts    uint64 // software-transaction conflicts/validation failures
	StmFallbacks uint64 // STM retry budgets exhausted; lock taken
	StmBusy      uint64 // hardware aborts on an active software writer
}

// EventKind enumerates the critical-section events an instrumenting
// profiler intercepts (TSXProf's record phase, §9).
type EventKind uint8

const (
	// EventBegin: a critical section was entered.
	EventBegin EventKind = iota
	// EventCommit: a transactional attempt committed.
	EventCommit
	// EventAbort: a transactional attempt aborted.
	EventAbort
	// EventFallback: the critical section ran under the lock.
	EventFallback
)

// EventSink receives instrumentation callbacks from the RTM library.
// Each delivery costs the instrumented thread PerEventCost cycles, the
// overhead instrumentation-based tools pay per transaction instance.
type EventSink interface {
	TxEvent(t *machine.Thread, kind EventKind)
	PerEventCost() int
}

// Lock is one elidable global lock protecting a set of critical
// sections. The lock word occupies a dedicated cache line so that
// false sharing never aborts transactions through the lock itself.
type Lock struct {
	Addr   mem.Addr
	Policy Policy
	Stats  Stats

	// Hybrid selects the slow path taken after hardware retries are
	// exhausted (see machine.HybridPolicy). NewLock copies it from the
	// machine's configuration; tests may override it before use. With
	// the default, HybridLockOnly, the lock behaves exactly as the
	// paper's runtime.
	Hybrid HybridPolicy

	// Sink, when set, receives begin/commit/abort/fallback events —
	// the instrumentation hook record-and-replay tools need. Nil for
	// normal (sampling-profiled or native) runs.
	Sink EventSink

	overheadCycles int // software bookkeeping burned per attempt

	// elided marks this lock as the engine of an ElidedLock running
	// speculatively: every state-word update then carries InElision,
	// splitting the lock's samples into the elided-* modes. False for
	// TM_BEGIN sections and for elidable locks with elision off, which
	// keeps those bit-identical to the pre-elision runtime.
	elided bool

	// Adaptive-policy state, mutated only by the simulated threads.
	// All cross-thread reads and writes of this state (and of Stats)
	// happen inside machine.Thread.Exclusive sections, which the
	// scheduler orders at the thread's canonical position — required
	// because thread-private operations run past other threads'
	// positions between gate points.
	ambientStreak int  // consecutive ambient aborts since last commit
	storming      bool // storm mode active

	// runM is the machine this lock last ran on. A Lock reused across
	// machine runs must not carry storm state (or software-TM word
	// locks) from a previous run into the next; critical resets both
	// when the machine changes. Atomic because the fast-path check in
	// resetRunOn reads it outside Exclusive (writes stay inside).
	runM atomic.Pointer[machine.Machine]

	// stm is the software-transaction side of the lock (see stm.go).
	// Always present so hybrid policies can be chosen per run without
	// perturbing memory layout; idle unless Hybrid enables it.
	stm stmState
}

// Storming reports whether the adaptive policy currently has retries
// shed (useful for tests and diagnostics).
func (l *Lock) Storming() bool { return l.storming }

// ResetRun clears per-run lock state: the adaptive storm detector and
// any software-TM word locks. critical calls it automatically when it
// first runs on a new machine; callers reusing a Lock outside Run can
// invoke it directly.
func (l *Lock) ResetRun() {
	l.ambientStreak = 0
	l.storming = false
	l.runM.Store(nil)
	l.stm.reset()
}

// resetRunOn resets per-run state the first time the lock is used on
// machine m. The check is a plain atomic pointer load (no machine
// operation, so schedules are unchanged); the reset itself is ordered
// by Exclusive and idempotent, so concurrent first entries are safe.
func (l *Lock) resetRunOn(t *machine.Thread) {
	if l.runM.Load() == t.Machine() {
		return
	}
	t.Exclusive(func() {
		if l.runM.Load() != t.Machine() {
			l.ambientStreak = 0
			l.storming = false
			l.stm.reset()
			l.runM.Store(t.Machine())
		}
	})
}

// noteOutcome updates the adaptive storm detector after one attempt.
func (l *Lock) noteOutcome(committed bool, cause htm.Cause) {
	if !l.Policy.Adaptive {
		return
	}
	switch {
	case committed:
		// Speculation works again; restore the full retry budget.
		l.ambientStreak = 0
		l.storming = false
	case cause.Ambient():
		l.ambientStreak++
		if !l.storming && l.ambientStreak >= l.Policy.stormThreshold() {
			l.storming = true
			l.Stats.StormsDetected++
		}
	default:
		// An application-caused abort breaks the streak: the aborts
		// are explainable, not ambient noise.
		l.ambientStreak = 0
	}
}

// maxRetries returns the retry budget currently in force.
func (l *Lock) maxRetries() int {
	if l.storming {
		return l.Policy.stormRetries()
	}
	return l.Policy.MaxRetries
}

// cs returns the state-word bits for this lock's critical sections:
// the given base buckets, plus InElision when the lock is an elided
// lock. Pure bit arithmetic — no machine operation, so schedules are
// unchanged and non-elided locks produce exactly the old words.
func (l *Lock) cs(bits uint32) uint32 {
	if l.elided {
		return bits | InElision
	}
	return bits
}

// emit delivers an instrumentation event and charges its cost.
func (l *Lock) emit(t *machine.Thread, kind EventKind) {
	if l.Sink == nil {
		return
	}
	t.Exclusive(func() { l.Sink.TxEvent(t, kind) })
	if c := l.Sink.PerEventCost(); c > 0 {
		t.Compute(c)
	}
}

// NewLock allocates a lock on machine m with the default policy and
// the machine's configured hybrid policy. The software-TM "active
// writers" word lives on the lock's own cache line (word 1, next to
// the lock word at word 0): hardware transactions already subscribe
// to that line through the lock-word check, so a software writer
// announcing itself aborts them with no additional instrumentation
// in the hardware fast path.
func NewLock(m *machine.Machine) *Lock {
	l := &Lock{
		Addr:           m.Mem.AllocLines(1),
		Policy:         DefaultPolicy(),
		Hybrid:         m.Config().Hybrid,
		Stats:          Stats{Aborts: make(map[htm.Cause]uint64)},
		overheadCycles: 25,
	}
	l.stm.init(l.Addr)
	return l
}

// Run executes body as one critical section on thread t: the paper's
// TM_BEGIN(); body; TM_END(). The body runs either inside a hardware
// transaction or, after exhausting retries, under the global lock; it
// must be idempotent up to its memory writes, as any transactional
// attempt may be discarded.
//
// Like a pthread mutex, the lock is not reentrant: nesting Run on the
// SAME lock deadlocks if the outer section falls back to the lock
// (the inner elision observes the self-held lock forever). Nesting on
// distinct locks, or within machine.Attempt, flattens as TSX does.
func (l *Lock) Run(t *machine.Thread, body func()) {
	t.Func("tm_begin", func() {
		// A section that durably committed (or touched no durable
		// lines) is done; an injected pmem crash without a durable
		// commit rolls the section back and re-executes it, as the
		// post-reboot process would.
		for !l.critical(t, body) {
		}
	})
}

// critical runs one execution attempt of the section and reports
// whether its effects are settled — true unless an injected pmem crash
// discarded them, in which case the caller re-executes.
func (l *Lock) critical(t *machine.Thread, body func()) bool {
	l.resetRunOn(t)
	t.PmemSectionBegin()
	l.emit(t, EventBegin)
	hybrid := l.Hybrid != HybridLockOnly
	retries, lockBusy := 0, 0
	for {
		// Transaction setup overhead (paper's T_oh component).
		t.State = l.cs(InCS | InOverhead)
		t.Compute(l.overheadCycles)

		// Wait for the lock to be free before starting (Figure 2).
		t.State = l.cs(InCS | InLockWaiting)
		waited := false
		for t.Load(l.Addr) != 0 {
			t.Compute(2)
			waited = true
		}
		if hybrid && l.Hybrid != HybridSandboxed {
			// Also wait for software writers to drain; the sandboxed
			// policy skips this and burns speculative attempts on the
			// in-transaction check instead.
			for t.Load(l.stm.active) != 0 {
				t.Compute(2)
				waited = true
			}
		}
		if waited && l.Policy.BackoffBase > 0 {
			// Desynchronize the herd released by the lock holder.
			t.Compute(1 + t.Rand().Intn(4*l.Policy.BackoffBase))
		}

		t.State = l.cs(InCS | InOverhead)
		sawLockHeld, sawStmWriter := false, false
		abort := t.Attempt(func() {
			t.State |= InHTM // transactional update; rolls back on abort
			// Read the lock word into the read set: a fallback
			// acquisition elsewhere now aborts this transaction.
			if t.Load(l.Addr) != 0 {
				sawLockHeld = true
				t.TxAbort()
			}
			if hybrid && t.Load(l.stm.active) != 0 {
				// Subscribe to the software writer count (same cache
				// line, so it costs no extra read-set entry): a
				// hardware transaction must never commit having read
				// a software transaction's eager, unvalidated writes.
				// A writer active at begin aborts here; one appearing
				// later conflicts on this line and dooms us.
				sawStmWriter = true
				t.TxAbort()
			}
			body()
		})
		if abort == nil {
			// Committed. Clean up (overhead), leave the CS.
			t.State = l.cs(InCS | InOverhead)
			t.Compute(l.overheadCycles)
			l.emit(t, EventCommit)
			ok := l.persist(t)
			t.State = 0
			t.Exclusive(func() {
				l.Stats.Commits++
				l.noteOutcome(true, htm.None)
			})
			return ok
		}

		l.emit(t, EventAbort)
		lockHeldAbort := sawLockHeld && abort.Cause == htm.Explicit
		stmBusyAbort := sawStmWriter && abort.Cause == htm.Explicit
		var budget int
		var storm bool
		t.Exclusive(func() {
			l.Stats.Aborts[abort.Cause]++
			l.noteOutcome(false, abort.Cause)
			if lockHeldAbort {
				l.Stats.LockBusy++
			}
			if stmBusyAbort {
				l.Stats.StmBusy++
			}
			budget = l.maxRetries()
			storm = l.storming
		})
		switch {
		case lockHeldAbort || stmBusyAbort:
			lockBusy++
			if lockBusy <= l.Policy.MaxLockBusy {
				continue // wait for the lock/writers and try again
			}
		case abort.Cause.Retryable() && retries < budget:
			retries++
			l.backoff(t, retries, storm)
			continue
		case abort.Cause == htm.Capacity && l.Policy.RetryOnCapacity && retries < budget:
			retries++
			l.backoff(t, retries, storm)
			continue
		}
		if storm {
			t.Exclusive(func() { l.Stats.StormFallbacks++ })
		}
		break // persistent abort or retries exhausted: fall back
	}

	// Instrumented software slow path: before serializing through the
	// lock, hybrid policies retry the body as a software transaction.
	if hybrid && l.runSTM(t, body) {
		return l.persist(t)
	}

	// Fallback path: acquire the global lock. The CAS is a
	// non-transactional write to the lock line, aborting every
	// transaction that has read it — the serialization the paper's
	// T_wait measures.
	t.State = l.cs(InCS | InLockWaiting)
	for !t.AtomicCAS(l.Addr, 0, mem.Word(t.ID)+1) {
		for t.Load(l.Addr) != 0 {
			t.Compute(2)
		}
	}
	if hybrid {
		// Software writers that entered their write phase before the
		// CAS drain here; new ones wait for the lock word. Their
		// eager writes are complete (and will validate cleanly — the
		// holder has written nothing yet), so once the count is zero
		// the holder owns memory exclusively.
		l.waitQuiesce(t)
	}
	held := t.Clock() // lock acquired; the serialization span begins
	t.State = l.cs(InCS | InFallback)
	body()
	t.State = l.cs(InCS | InOverhead)
	t.Store(l.Addr, 0) // release
	t.TraceEvent(telemetry.Event{
		Kind: telemetry.KindSpan, TS: held, Dur: t.Clock() - held,
		TID: int32(t.ID), Name: "fallback-lock",
	})
	l.emit(t, EventFallback)
	ok := l.persist(t)
	t.State = 0
	t.Exclusive(func() { l.Stats.Fallbacks++ })
	return ok
}

// persist runs the durable-commit epilogue when the section stored to
// tracked persistent lines: flush each logged line, drain the persist
// fence, write the commit record. It runs inside a pmem_persist frame
// with the InFlush state bit set, so samples landing here classify as
// persistence stalls and attribute to the flush site in the CCT. The
// return value is false exactly when an injected crash discarded the
// section (crashed without a durable commit record) and the caller
// must re-execute it.
func (l *Lock) persist(t *machine.Thread) bool {
	if !t.PmemPending() {
		return true
	}
	prev := t.State
	t.State = l.cs(InCS | InFlush)
	crashed, committed := false, true
	t.Func("pmem_persist", func() {
		crashed, committed = t.PmemPersist()
	})
	t.State = prev
	return committed || !crashed
}

// backoff burns a randomized, exponentially growing pause before a
// conflict retry; the state word shows transaction overhead. storming
// is the storm flag as observed in the caller's Exclusive section.
func (l *Lock) backoff(t *machine.Thread, retries int, storming bool) {
	if l.Policy.BackoffBase <= 0 {
		return
	}
	window := l.Policy.BackoffBase << uint(retries-1)
	if storming {
		window <<= 2 // desynchronize harder while the storm lasts
	}
	t.State = l.cs(InCS | InOverhead)
	t.Compute(1 + t.Rand().Intn(window))
}

// RunHLE executes body with hardware lock elision semantics (paper
// §2): the lock acquisition is elided into a single transactional
// attempt whose read set contains the lock word; any abort re-executes
// the critical section under the real lock, with no retry loop —
// exactly the XACQUIRE/XRELEASE behaviour. The state word is
// maintained identically, so the profiler needs no HLE-specific code.
func (l *Lock) RunHLE(t *machine.Thread, body func()) {
	t.Func("hle_acquire", func() {
		t.State = l.cs(InCS | InLockWaiting)
		for t.Load(l.Addr) != 0 {
			t.Compute(2)
		}
		t.State = l.cs(InCS | InOverhead)
		abort := t.Attempt(func() {
			t.State |= InHTM
			if t.Load(l.Addr) != 0 {
				t.TxAbort()
			}
			body()
		})
		if abort == nil {
			t.State = 0
			t.Exclusive(func() { l.Stats.Commits++ })
			return
		}
		t.Exclusive(func() { l.Stats.Aborts[abort.Cause]++ })
		// HLE retries by grabbing the real lock immediately.
		t.State = l.cs(InCS | InLockWaiting)
		for !t.AtomicCAS(l.Addr, 0, mem.Word(t.ID)+1) {
			for t.Load(l.Addr) != 0 {
				t.Compute(2)
			}
		}
		t.State = l.cs(InCS | InFallback)
		body()
		t.State = l.cs(InCS | InOverhead)
		t.Store(l.Addr, 0)
		t.State = 0
		t.Exclusive(func() { l.Stats.Fallbacks++ })
	})
}

// RunLocked executes body under the global lock without attempting a
// transaction — the pure pthread-mutex baseline the paper's workloads
// were ported from.
func (l *Lock) RunLocked(t *machine.Thread, body func()) {
	t.Func("lock_acquire", func() {
		t.State = l.cs(InCS | InLockWaiting)
		for !t.AtomicCAS(l.Addr, 0, mem.Word(t.ID)+1) {
			for t.Load(l.Addr) != 0 {
				t.Compute(2)
			}
		}
		t.State = l.cs(InCS | InFallback)
		body()
		t.Store(l.Addr, 0)
		t.State = 0
	})
}

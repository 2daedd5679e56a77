// Package htm implements the hardware transactional memory engine of
// the simulated machine, modelled on Intel TSX's Restricted
// Transactional Memory (RTM).
//
// Like TSX, the engine detects conflicts at cache-line granularity
// through the coherence protocol with a requester-wins policy: when a
// core's access needs a line another transaction is tracking in a
// conflicting mode, the *tracking* transaction aborts (it is the one
// that receives the invalidation). Transactional stores are buffered
// and become visible only at commit. A transaction whose write set
// overflows an L1 set, or whose read set exceeds the read-tracking
// capacity, suffers a capacity abort. Unfriendly instructions (system
// calls, page faults) cause synchronous aborts, and PMU interrupts
// cause interrupt aborts — the machine layer reports those through
// Doom.
package htm

import (
	"fmt"
	"math/bits"

	"txsampler/internal/mem"
)

// Cause identifies why a transaction aborted. The zero value means the
// transaction has not aborted.
type Cause uint8

const (
	// None: no abort.
	None Cause = iota
	// Conflict: another core's memory access conflicted with this
	// transaction's read or write set (asynchronous abort).
	Conflict
	// Capacity: the transactional footprint exceeded the hardware's
	// tracking capacity (asynchronous abort).
	Capacity
	// Sync: an unfriendly instruction (system call, page fault, ...)
	// executed inside the transaction (synchronous abort).
	Sync
	// Explicit: the program executed XABORT.
	Explicit
	// Interrupt: a PMU counter overflow interrupt landed while the
	// transaction was running. These aborts are induced by the
	// profiler itself and are reported separately from application
	// aborts (paper §3.1).
	Interrupt
	// Spurious: an environment-injected transient abort with no cause
	// visible to software — real TSX occasionally aborts with a fully
	// clear EAX status (not even the retry bit) even though an
	// immediate retry succeeds. Produced only by the fault-injection
	// subsystem (internal/faults); like Interrupt, it is ambient noise
	// and excluded from application abort classification.
	Spurious

	// NumCauses is the number of defined abort causes (including
	// None), for metric arrays indexed by Cause.
	NumCauses = iota
)

func (c Cause) String() string {
	switch c {
	case None:
		return "none"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case Sync:
		return "sync"
	case Explicit:
		return "explicit"
	case Interrupt:
		return "interrupt"
	case Spurious:
		return "spurious"
	}
	return "unknown"
}

// Retryable reports whether an abort with this cause may succeed if the
// transaction is simply retried, mirroring the TSX "retry" status bit:
// conflicts, interrupt-induced aborts, and spurious aborts are
// transient; capacity, synchronous, and explicit aborts are persistent.
func (c Cause) Retryable() bool { return c == Conflict || c == Interrupt || c == Spurious }

// Ambient reports whether the cause is environment noise rather than
// application behaviour: profiler-induced interrupt aborts and
// fault-injected spurious aborts. The analyzer excludes ambient causes
// from application abort classification so profiles stay comparable
// between clean and chaos runs.
func (c Cause) Ambient() bool { return c == Interrupt || c == Spurious }

// Config sizes the transactional tracking structures.
type Config struct {
	// Sets and Ways give the per-core L1 geometry used to track the
	// write set: a transaction aborts when the distinct write-set
	// lines mapping to one set exceed Ways.
	Sets, Ways int
	// MaxReadLines bounds the total read-set size (reads are tracked
	// in a larger secondary structure on real hardware). Zero means
	// 4096 lines (a 256 KiB L2 worth).
	MaxReadLines int
}

func (c Config) maxRead() int {
	if c.MaxReadLines > 0 {
		return c.MaxReadLines
	}
	return 4096
}

// Validate reports whether the tracking geometry is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Ways <= 0 {
		return fmt.Errorf("htm: invalid geometry sets=%d ways=%d (both must be positive)", c.Sets, c.Ways)
	}
	if c.MaxReadLines < 0 {
		return fmt.Errorf("htm: negative MaxReadLines %d", c.MaxReadLines)
	}
	return nil
}

// CapacityKind records which set overflowed on a capacity abort.
type CapacityKind uint8

const (
	// CapacityNone: not a capacity abort.
	CapacityNone CapacityKind = iota
	// CapacityRead: the read set overflowed.
	CapacityRead
	// CapacityWrite: the write set overflowed an L1 set.
	CapacityWrite
)

func (k CapacityKind) String() string {
	switch k {
	case CapacityRead:
		return "read"
	case CapacityWrite:
		return "write"
	default:
		return "none"
	}
}

// MaxThreads bounds the thread IDs the engine tracks: a line records
// its transactional readers as one bit per thread.
const MaxThreads = 64

// Tx is one hardware transaction attempt. Fields are read-only for
// callers; the engine mutates them. The engine keeps one Tx per thread
// and reuses it: the *Tx that Begin returns, and the stores Commit
// returns, are valid until the thread's next Begin.
type Tx struct {
	TID int // simulated thread owning the transaction

	Doomed     bool
	AbortCause Cause
	CapKind    CapacityKind
	// AbortedByTx distinguishes conflicts with another transaction
	// from conflicts with non-transactional code (e.g. the fallback
	// lock acquisition) — the finer cause granularity POWER8 exposes
	// and Intel does not (paper §10).
	AbortedByTx bool

	StartCycle uint64 // thread clock at XBEGIN, for abort-weight accounting

	live     bool        // begun, neither committed nor doomed: its lines are tracked
	reads    []mem.Addr  // read-set lines, in first-touch order
	writes   []writeLine // write-set lines with their buffered stores, in first-touch order
	occBySet []uint16    // distinct tracked lines (read or write) per L1 set
	stores   []Store     // Commit's result
}

// writeLine is one write-set line and the stores buffered on it.
type writeLine struct {
	line  mem.Addr
	mask  uint8 // bit i: words[i] holds a buffered store
	words [mem.WordsPerLine]mem.Word
}

// Store is one buffered transactional store.
type Store struct {
	Addr mem.Addr
	Val  mem.Word
}

// ReadSetLines and WriteSetLines report the current footprint.
func (t *Tx) ReadSetLines() int  { return len(t.reads) }
func (t *Tx) WriteSetLines() int { return len(t.writes) }

// lineTrack is the engine's per-line record of the live transactions
// tracking a line, kept per line as TSX keeps its tracking bits in the
// L1 line itself. The zero record is an untracked line.
type lineTrack struct {
	readers uint64 // bit t: thread t's transaction has the line in its read set
	writer  uint8  // 1 + the thread whose transaction has it in its write set, or 0
	slot    uint32 // the line's index in that transaction's write set
}

// Engine tracks all in-flight transactions on the machine.
type Engine struct {
	cfg Config

	// lines records which transactions track each line. Doomed
	// transactions are untracked eagerly, as hardware stops tracking
	// an aborted transaction's lines.
	lines mem.Table[lineTrack]
	txs   [MaxThreads]*Tx // each thread's reused transaction
}

// NewEngine returns an engine for the given tracking geometry. Direct
// API misuse panics; construct through a validated machine.Config (or
// call Config.Validate first) for an error instead.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Engine{cfg: cfg}
}

// Begin starts a transaction for thread tid (in [0, MaxThreads)) whose
// clock reads startCycle. The thread's previous transaction, if any,
// must have committed or been doomed.
func (e *Engine) Begin(tid int, startCycle uint64) *Tx {
	tx := e.txs[tid]
	if tx == nil {
		tx = &Tx{occBySet: make([]uint16, e.cfg.Sets)}
		e.txs[tid] = tx
	} else if tx.live {
		panic(fmt.Sprintf("htm: Begin for thread %d while its transaction is in flight", tid))
	}
	clear(tx.occBySet)
	*tx = Tx{
		TID:        tid,
		StartCycle: startCycle,
		live:       true,
		reads:      tx.reads[:0],
		writes:     tx.writes[:0],
		occBySet:   tx.occBySet,
		stores:     tx.stores[:0],
	}
	return tx
}

// Doom marks tx aborted with the given cause and untracks its lines.
// Doom on an already-doomed transaction is a no-op so the first cause
// wins.
func (e *Engine) Doom(tx *Tx, cause Cause) { e.doom(tx, cause, false) }

// doom is Doom recording whether the dooming access was transactional.
func (e *Engine) doom(tx *Tx, cause Cause, byTx bool) {
	if tx.Doomed {
		return
	}
	tx.Doomed = true
	tx.AbortCause = cause
	tx.AbortedByTx = byTx
	e.untrack(tx)
}

// doomReaders dooms the transactions of the threads in the bitmask
// readers with a conflict.
func (e *Engine) doomReaders(readers uint64, byTx bool) {
	for ; readers != 0; readers &= readers - 1 {
		e.doom(e.txs[bits.TrailingZeros64(readers)], Conflict, byTx)
	}
}

// untrack clears tx's marks from its lines. A live transaction owns
// every line of its write set: a second writer dooms the first.
func (e *Engine) untrack(tx *Tx) {
	if !tx.live {
		return
	}
	tx.live = false
	bit := uint64(1) << tx.TID
	for _, line := range tx.reads {
		e.lines.At(line).readers &^= bit
	}
	for i := range tx.writes {
		e.lines.At(tx.writes[i].line).writer = 0
	}
}

// track counts a line new to tx's footprint against its L1 set,
// dooming tx with a capacity abort of the given kind when the set is
// full. It reports whether the line fits.
func (e *Engine) track(tx *Tx, line mem.Addr, kind CapacityKind) bool {
	set := int(line.LineIndex() % uint64(e.cfg.Sets))
	if int(tx.occBySet[set]) >= e.cfg.Ways {
		tx.CapKind = kind
		e.Doom(tx, Capacity)
		return false
	}
	tx.occBySet[set]++
	return true
}

// Read performs a transactional load of the word at a. It returns the
// loaded value's source: ok=false means the value must come from
// memory; ok=true returns the transaction's own buffered store. Side
// effects: the line joins the read set (aborting a conflicting remote
// writer, requester-wins), and the transaction may doom itself with a
// capacity abort. Callers must check tx.Doomed afterwards.
func (e *Engine) Read(tx *Tx, a mem.Addr) (v mem.Word, ok bool) {
	if !tx.live {
		return 0, false
	}
	line := a.Line()
	lt := e.lines.At(line)
	self := uint8(tx.TID + 1)
	if lt.writer == self {
		wl := &tx.writes[lt.slot]
		if i := a % mem.LineSize / mem.WordSize; wl.mask&(1<<i) != 0 {
			return wl.words[i], true
		}
	} else if lt.writer != 0 {
		// Requester wins: a remote transaction holding the line in its
		// write set receives our share request and aborts.
		e.doom(e.txs[lt.writer-1], Conflict, true)
	}
	bit := uint64(1) << tx.TID
	if lt.readers&bit == 0 {
		if len(tx.reads) >= e.cfg.maxRead() {
			tx.CapKind = CapacityRead
			e.Doom(tx, Capacity)
			return 0, false
		}
		// Both read and write sets are tracked in the L1: a set whose
		// tracked lines exceed the associativity cannot hold the
		// footprint, and the transaction aborts (TSX read-set
		// evictions behave this way on the modelled parts).
		if lt.writer != self && !e.track(tx, line, CapacityRead) {
			return 0, false
		}
		tx.reads = append(tx.reads, line)
		lt.readers |= bit
	}
	return 0, false
}

// Write performs a transactional store, buffering the value. Remote
// transactions tracking the line in read or write sets abort
// (requester-wins). The transaction may doom itself with a capacity
// abort if the write set overflows its L1 set. Callers must check
// tx.Doomed afterwards.
func (e *Engine) Write(tx *Tx, a mem.Addr, v mem.Word) {
	if !tx.live {
		return
	}
	line := a.Line()
	lt := e.lines.At(line)
	self := uint8(tx.TID + 1)
	if lt.writer != 0 && lt.writer != self {
		e.doom(e.txs[lt.writer-1], Conflict, true)
	}
	bit := uint64(1) << tx.TID
	e.doomReaders(lt.readers&^bit, true)
	if lt.writer != self {
		// A line already in the read set is already tracked in its L1
		// set; only new lines consume a way.
		if lt.readers&bit == 0 && !e.track(tx, line, CapacityWrite) {
			return
		}
		lt.writer = self
		lt.slot = uint32(len(tx.writes))
		tx.writes = append(tx.writes, writeLine{line: line})
	}
	wl := &tx.writes[lt.slot]
	i := a % mem.LineSize / mem.WordSize
	wl.words[i] = v
	wl.mask |= 1 << i
}

// NonTxAccess notifies the engine of a non-transactional access by
// thread tid, aborting any transactions that conflict with it. A
// non-transactional write conflicts with remote read and write sets; a
// non-transactional read conflicts with remote write sets.
func (e *Engine) NonTxAccess(tid int, a mem.Addr, write bool) {
	line := a.Line()
	lt := e.lines.Get(line)
	if lt == nil {
		return
	}
	if lt.writer != 0 && int(lt.writer) != tid+1 {
		e.Doom(e.txs[lt.writer-1], Conflict)
	}
	if write {
		e.doomReaders(lt.readers&^(1<<uint(tid)), false)
	}
}

// Commit attempts to commit tx. On success it returns the buffered
// stores, one per written word, for the machine to apply to memory; if
// the transaction was doomed it returns nil and false.
func (e *Engine) Commit(tx *Tx) (stores []Store, ok bool) {
	if tx.Doomed {
		return nil, false
	}
	e.untrack(tx)
	for i := range tx.writes {
		wl := &tx.writes[i]
		for m := wl.mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros8(m)
			tx.stores = append(tx.stores, Store{wl.line.Offset(j), wl.words[j]})
		}
	}
	return tx.stores, true
}

// InFlight reports how many lines are globally tracked; used by tests
// to verify no leaks after commits and aborts.
func (e *Engine) InFlight() (readLines, writeLines int) {
	e.lines.Range(func(_ mem.Addr, lt *lineTrack) {
		if lt.readers != 0 {
			readLines++
		}
		if lt.writer != 0 {
			writeLines++
		}
	})
	return readLines, writeLines
}

package htm

// The map-based engine the page-indexed one replaced, renamed, as the
// reference FuzzEngineMatchesReference compares against: one fresh
// refTx per Begin, read and write sets as maps, and per-line readers
// and writers in maps keyed by line.

import "txsampler/internal/mem"

// refTx is one hardware transaction attempt. Fields are read-only for
// callers; the engine mutates them.
type refTx struct {
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

	readSet  map[mem.Addr]struct{}
	writeSet map[mem.Addr]struct{}
	occBySet []uint16 // distinct tracked lines (read or write) per L1 set
	writeBuf map[mem.Addr]mem.Word
}

// ReadSetLines and WriteSetLines report the current footprint.
func (t *refTx) ReadSetLines() int  { return len(t.readSet) }
func (t *refTx) WriteSetLines() int { return len(t.writeSet) }

// refEngine tracks all in-flight transactions on the machine.
type refEngine struct {
	cfg Config

	// readers maps a line to the transactions tracking it in their
	// read set; writers maps a line to the single transaction holding
	// it in its write set. Doomed transactions are removed eagerly,
	// as hardware stops tracking an aborted transaction's lines.
	readers map[mem.Addr]map[*refTx]struct{}
	writers map[mem.Addr]*refTx
}

// newRefEngine returns an engine for the given tracking geometry. Direct
// API misuse panics; construct through a validated machine.Config (or
// call Config.Validate first) for an error instead.
func newRefEngine(cfg Config) *refEngine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &refEngine{
		cfg:     cfg,
		readers: make(map[mem.Addr]map[*refTx]struct{}),
		writers: make(map[mem.Addr]*refTx),
	}
}

// Begin starts a transaction for thread tid whose clock reads
// startCycle.
func (e *refEngine) Begin(tid int, startCycle uint64) *refTx {
	return &refTx{
		TID:        tid,
		StartCycle: startCycle,
		readSet:    make(map[mem.Addr]struct{}),
		writeSet:   make(map[mem.Addr]struct{}),
		occBySet:   make([]uint16, e.cfg.Sets),
		writeBuf:   make(map[mem.Addr]mem.Word),
	}
}

// Doom marks tx aborted with the given cause and untracks its lines.
// Doom on an already-doomed transaction is a no-op so the first cause
// wins.
func (e *refEngine) Doom(tx *refTx, cause Cause) { e.doom(tx, cause, false) }

func (e *refEngine) doom(tx *refTx, cause Cause, byTx bool) {
	if tx.Doomed {
		return
	}
	tx.Doomed = true
	tx.AbortCause = cause
	tx.AbortedByTx = byTx
	e.untrack(tx)
}

func (e *refEngine) untrack(tx *refTx) {
	for line := range tx.readSet {
		if rs := e.readers[line]; rs != nil {
			delete(rs, tx)
			if len(rs) == 0 {
				delete(e.readers, line)
			}
		}
	}
	for line := range tx.writeSet {
		if e.writers[line] == tx {
			delete(e.writers, line)
		}
	}
}

// Read performs a transactional load of the word at a. It returns the
// loaded value's source: ok=false means the value must come from
// memory; ok=true returns the transaction's own buffered store. Side
// effects: the line joins the read set (aborting a conflicting remote
// writer, requester-wins), and the transaction may doom itself with a
// capacity abort. Callers must check tx.Doomed afterwards.
func (e *refEngine) Read(tx *refTx, a mem.Addr) (v mem.Word, ok bool) {
	if tx.Doomed {
		return 0, false
	}
	if v, ok := tx.writeBuf[a]; ok {
		return v, true
	}
	line := a.Line()
	// Requester wins: a remote transaction holding the line in its
	// write set receives our share request and aborts.
	if w := e.writers[line]; w != nil && w != tx {
		e.doom(w, Conflict, true)
	}
	if _, tracked := tx.readSet[line]; !tracked {
		if len(tx.readSet) >= e.cfg.maxRead() {
			tx.CapKind = CapacityRead
			e.Doom(tx, Capacity)
			return 0, false
		}
		// Both read and write sets are tracked in the L1: a set whose
		// tracked lines exceed the associativity cannot hold the
		// footprint, and the transaction aborts (TSX read-set
		// evictions behave this way on the modelled parts).
		if _, written := tx.writeSet[line]; !written {
			set := int(line.LineIndex() % uint64(e.cfg.Sets))
			if int(tx.occBySet[set]) >= e.cfg.Ways {
				tx.CapKind = CapacityRead
				e.Doom(tx, Capacity)
				return 0, false
			}
			tx.occBySet[set]++
		}
		tx.readSet[line] = struct{}{}
		rs := e.readers[line]
		if rs == nil {
			rs = make(map[*refTx]struct{})
			e.readers[line] = rs
		}
		rs[tx] = struct{}{}
	}
	return 0, false
}

// Write performs a transactional store, buffering the value. Remote
// transactions tracking the line in read or write sets abort
// (requester-wins). The transaction may doom itself with a capacity
// abort if the write set overflows its L1 set. Callers must check
// tx.Doomed afterwards.
func (e *refEngine) Write(tx *refTx, a mem.Addr, v mem.Word) {
	if tx.Doomed {
		return
	}
	line := a.Line()
	if w := e.writers[line]; w != nil && w != tx {
		e.doom(w, Conflict, true)
	}
	for r := range e.readers[line] {
		if r != tx {
			e.doom(r, Conflict, true)
		}
	}
	if _, tracked := tx.writeSet[line]; !tracked {
		// A line already in the read set is already tracked in its L1
		// set; only new lines consume a way.
		if _, read := tx.readSet[line]; !read {
			set := int(line.LineIndex() % uint64(e.cfg.Sets))
			if int(tx.occBySet[set]) >= e.cfg.Ways {
				tx.CapKind = CapacityWrite
				e.Doom(tx, Capacity)
				return
			}
			tx.occBySet[set]++
		}
		tx.writeSet[line] = struct{}{}
		e.writers[line] = tx
	}
	tx.writeBuf[a] = v
}

// NonTxAccess notifies the engine of a non-transactional access by
// thread tid, aborting any transactions that conflict with it. A
// non-transactional write conflicts with remote read and write sets; a
// non-transactional read conflicts with remote write sets.
func (e *refEngine) NonTxAccess(tid int, a mem.Addr, write bool) {
	line := a.Line()
	if w := e.writers[line]; w != nil && w.TID != tid {
		e.Doom(w, Conflict)
	}
	if write {
		for r := range e.readers[line] {
			if r.TID != tid {
				e.Doom(r, Conflict)
			}
		}
	}
}

// Commit attempts to commit tx. On success it returns the buffered
// stores for the machine to apply to memory; if the transaction was
// doomed it returns nil and false.
func (e *refEngine) Commit(tx *refTx) (stores map[mem.Addr]mem.Word, ok bool) {
	if tx.Doomed {
		return nil, false
	}
	e.untrack(tx)
	return tx.writeBuf, true
}

// InFlight reports how many lines are globally tracked; used by tests
// to verify no leaks after commits and aborts.
func (e *refEngine) InFlight() (readLines, writeLines int) {
	return len(e.readers), len(e.writers)
}

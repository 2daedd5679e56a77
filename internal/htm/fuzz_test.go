package htm

import (
	"testing"

	"txsampler/internal/mem"
)

// Script operations, one per 3-byte step: op, thread, argument.
const (
	opBegin = iota
	opRead
	opWrite
	opNonTx
	opDoom
	opCommit
	numOps
)

// scriptAddr maps a step's argument to a word on one of 16 lines that
// straddle a page boundary (8 on each side), so with 4 sets of 2 ways
// footprints overflow sets and, past 6 lines, the read limit.
func scriptAddr(arg byte) mem.Addr {
	const base = 2*65536 - 8*mem.LineSize
	return mem.Addr(base + uint64(arg&15)*mem.LineSize + uint64(arg>>4&7)*mem.WordSize)
}

// FuzzEngineMatchesReference runs scripts of Begin, Read, Write,
// NonTxAccess, Doom and Commit over threads 0-63 on the engine and on
// the map-based reference it replaced, and requires every observable
// to agree after every step: each transaction's abort record and
// footprint, each read's value, each commit's stores, and the lines in
// flight. As in the machine, a thread begins only when it holds no
// live transaction and stops using a transaction once it commits.
func FuzzEngineMatchesReference(f *testing.F) {
	step := func(op, tid, arg byte) []byte { return []byte{op, tid, arg} }
	script := func(steps ...[]byte) []byte {
		var s []byte
		for _, st := range steps {
			s = append(s, st...)
		}
		return s
	}
	// Read-write conflict across threads 0 and 63, then both commit.
	f.Add(script(step(opBegin, 0, 0), step(opBegin, 63, 0), step(opRead, 0, 0x11),
		step(opWrite, 63, 0x21), step(opCommit, 0, 0), step(opCommit, 63, 0)))
	// Write-write conflict on the lines either side of the page
	// boundary, forwarding, a non-transactional write, a re-begin.
	f.Add(script(step(opBegin, 1, 0), step(opBegin, 2, 0), step(opWrite, 1, 0x07),
		step(opWrite, 1, 0x08), step(opRead, 1, 0x07), step(opWrite, 2, 0x78),
		step(opNonTx, 3, 0x87), step(opBegin, 1, 0), step(opRead, 1, 0x17), step(opCommit, 1, 0)))
	// Capacity: five lines of one set, then seven distinct reads.
	f.Add(script(step(opBegin, 5, 0), step(opWrite, 5, 0), step(opWrite, 5, 4),
		step(opRead, 5, 8), step(opBegin, 6, 0), step(opRead, 6, 1), step(opRead, 6, 2),
		step(opRead, 6, 3), step(opRead, 6, 5), step(opRead, 6, 6), step(opRead, 6, 7),
		step(opRead, 6, 9), step(opCommit, 6, 0), step(opCommit, 5, 0)))
	// An explicit doom, a stale commit and a non-transactional read.
	f.Add(script(step(opBegin, 9, 0), step(opWrite, 9, 0x33), step(opNonTx, 9, 0x33),
		step(opDoom, 9, 3), step(opCommit, 9, 0), step(opBegin, 9, 0), step(opRead, 9, 0x33),
		step(opNonTx, 10, 0x33), step(opCommit, 9, 0)))
	// A non-transactional read of a line a live transaction wrote
	// dooms the writer; of a line one only read, it dooms nothing.
	f.Add(script(step(opBegin, 4, 0), step(opWrite, 4, 0x25), step(opRead, 4, 0x25),
		step(opNonTx, 7, 0x15), step(opCommit, 4, 0), step(opBegin, 4, 0), step(opRead, 4, 0x05),
		step(opNonTx, 7, 0x05), step(opCommit, 4, 0)))
	// A non-transactional write over two reading transactions on one
	// line, then over a writing transaction on the next.
	f.Add(script(step(opBegin, 20, 0), step(opBegin, 21, 0), step(opBegin, 22, 0),
		step(opRead, 20, 0x0c), step(opRead, 21, 0x1c), step(opWrite, 22, 0x2d),
		step(opNonTx, 23, 0x8c), step(opNonTx, 23, 0x8d), step(opCommit, 20, 0),
		step(opCommit, 21, 0), step(opCommit, 22, 0)))

	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := Config{Sets: 4, Ways: 2, MaxReadLines: 6}
		e, ref := NewEngine(cfg), newRefEngine(cfg)
		var txs [MaxThreads]*Tx
		var refs [MaxThreads]*refTx
		for n := 0; len(script) >= 3; n++ {
			op, tid, arg := script[0]%numOps, int(script[1]%MaxThreads), script[2]
			script = script[3:]
			a := scriptAddr(arg)
			tx, rx := txs[tid], refs[tid]
			switch {
			case op == opBegin:
				if tx != nil && !tx.Doomed {
					continue // the thread's transaction is live
				}
				txs[tid], refs[tid] = e.Begin(tid, uint64(n)), ref.Begin(tid, uint64(n))
			case op == opNonTx:
				e.NonTxAccess(tid, a, arg&0x80 != 0)
				ref.NonTxAccess(tid, a, arg&0x80 != 0)
			case tx == nil:
				continue // the remaining operations need a transaction
			case op == opRead:
				v, ok := e.Read(tx, a)
				rv, rok := ref.Read(rx, a)
				if v != rv || ok != rok {
					t.Fatalf("step %d: thread %d Read(%s) = %d,%v, reference %d,%v", n, tid, a, v, ok, rv, rok)
				}
			case op == opWrite:
				e.Write(tx, a, mem.Word(n))
				ref.Write(rx, a, mem.Word(n))
			case op == opDoom:
				cause := Cause(1 + int(arg)%(NumCauses-1))
				e.Doom(tx, cause)
				ref.Doom(rx, cause)
			case op == opCommit:
				stores, ok := e.Commit(tx)
				rstores, rok := ref.Commit(rx)
				got := storeSet(stores)
				if ok != rok || len(got) != len(stores) || len(got) != len(rstores) {
					t.Fatalf("step %d: thread %d Commit = %d stores,%v, reference %d,%v", n, tid, len(stores), ok, len(rstores), rok)
				}
				for addr, v := range rstores {
					if w, found := got[addr]; !found || w != v {
						t.Fatalf("step %d: thread %d committed %s = %d (present %v), reference %d", n, tid, addr, w, found, v)
					}
				}
				txs[tid], refs[tid] = nil, nil
			}
			for id, tx := range txs {
				if tx != nil {
					compareTx(t, n, tx, refs[id])
				}
			}
			r, w := e.InFlight()
			if rr, rw := ref.InFlight(); r != rr || w != rw {
				t.Fatalf("step %d: InFlight = %d,%d, reference %d,%d", n, r, w, rr, rw)
			}
		}
	})
}

// compareTx fails the test at step n when tx and its reference twin
// disagree on anything a caller can read.
func compareTx(t *testing.T, n int, tx *Tx, rx *refTx) {
	t.Helper()
	got := [...]any{tx.TID, tx.StartCycle, tx.Doomed, tx.AbortCause,
		tx.AbortedByTx, tx.CapKind, tx.ReadSetLines(), tx.WriteSetLines()}
	want := [...]any{rx.TID, rx.StartCycle, rx.Doomed, rx.AbortCause,
		rx.AbortedByTx, rx.CapKind, rx.ReadSetLines(), rx.WriteSetLines()}
	if got != want {
		t.Fatalf("step %d: thread %d transaction %v, reference %v\n(TID StartCycle Doomed AbortCause AbortedByTx CapKind reads writes)",
			n, tx.TID, got, want)
	}
}

package htmbench

import (
	"errors"
	"fmt"

	"txsampler/internal/machine"
	"txsampler/internal/mem"
)

// ErrPoolExhausted matches any node-pool exhaustion failure via
// errors.Is, including one that escaped a workload as a thread panic
// and was wrapped by machine.Run.
var ErrPoolExhausted = errors.New("htmbench: node pool exhausted")

// PoolExhaustedError reports which thread's per-thread node pool ran
// dry — a workload sizing bug, not a machine fault.
type PoolExhaustedError struct {
	TID int
}

func (e *PoolExhaustedError) Error() string {
	return fmt.Sprintf("htmbench: node pool exhausted for thread %d", e.TID)
}

// Is makes errors.Is(err, ErrPoolExhausted) succeed.
func (e *PoolExhaustedError) Is(target error) bool { return target == ErrPoolExhausted }

// sameBodies returns n copies of body, for SPMD workloads.
func sameBodies(n int, body func(*machine.Thread)) []func(*machine.Thread) {
	out := make([]func(*machine.Thread), n)
	for i := range out {
		out[i] = body
	}
	return out
}

// padded allocates n counters, one cache line apart, so distinct
// indices never share a line.
type padded struct{ base mem.Addr }

func newPadded(m *machine.Machine, n int) padded {
	return padded{base: m.Mem.AllocLines(n)}
}

func (p padded) at(i int) mem.Addr { return p.base + mem.Addr(i)*mem.LineSize }

// wordArray allocates n contiguous words (densely packed: eight words
// share one line, so neighbouring indices false-share).
type wordArray struct{ base mem.Addr }

func newWordArray(m *machine.Machine, n int) wordArray {
	return wordArray{base: m.Mem.AllocWords(n)}
}

func (a wordArray) at(i int) mem.Addr { return a.base.Offset(i) }

// nodePool hands out per-thread preallocated one-line nodes, the way
// real TM programs use thread-local allocators to keep memory
// management out of transactions. The per-thread bump pointer lives in
// simulated memory (one private line per thread), so an allocation
// made inside a transaction rolls back with the abort — exactly how a
// transactional free-list behaves. Each node is one cache line laid
// out as words [0..7]; the caller defines the fields.
type nodePool struct {
	base      mem.Addr
	perThread int
	bump      padded // per-thread next-free index cells
}

func newNodePool(m *machine.Machine, threads, perThread int) *nodePool {
	return &nodePool{
		base:      m.Mem.AllocLines(threads * perThread),
		perThread: perThread,
		bump:      newPadded(m, threads),
	}
}

// alloc returns the next node line for thread t, bumping the pointer
// through the memory system (transactionally inside a transaction, so
// aborted attempts release their nodes). Exhaustion (a sizing bug in
// the workload) panics with a *PoolExhaustedError; machine.Run
// converts the panic into an error matching ErrPoolExhausted instead
// of crashing the process.
func (p *nodePool) alloc(t *machine.Thread) mem.Addr {
	cell := p.bump.at(t.ID)
	i := t.Load(cell)
	if int(i) >= p.perThread {
		panic(&PoolExhaustedError{TID: t.ID})
	}
	t.Store(cell, i+1)
	return p.base + mem.Addr(t.ID*p.perThread+int(i))*mem.LineSize
}

// allocHost is alloc for untimed setup code running outside the
// simulation (list/tree preloading): it manipulates memory directly.
func (p *nodePool) allocHost(m *machine.Machine, tid int) mem.Addr {
	cell := p.bump.at(tid)
	i := m.Mem.Load(cell)
	if int(i) >= p.perThread {
		panic(&PoolExhaustedError{TID: tid})
	}
	m.Mem.Store(cell, i+1)
	return p.base + mem.Addr(tid*p.perThread+int(i))*mem.LineSize
}

// Node field offsets for list/tree nodes: one line per node.
const (
	fKey   = 0 // key word
	fVal   = 1 // value word
	fNext  = 2 // next pointer (address as word; 0 = nil)
	fLeft  = 2 // left child (trees reuse the slot)
	fRight = 3 // right child
)

func fieldAddr(node mem.Addr, field int) mem.Addr { return node.Offset(field) }

// hashTable is a chained hash table over simulated memory: a bucket
// array of head pointers (optionally padded) and one-line nodes.
// The hash function is pluggable so workloads can reproduce the
// paper's Dedup pathology (a hash that clusters keys into few
// buckets, §8.1).
type hashTable struct {
	headBase mem.Addr
	dense    bool // heads densely packed (8 per line) vs padded
	pool     *nodePool
	hash     func(key uint64) int
}

func newHashTable(m *machine.Machine, threads, buckets, poolPerThread int, dense bool, hash func(uint64) int) *hashTable {
	h := &hashTable{dense: dense, pool: newNodePool(m, threads, poolPerThread), hash: hash}
	if dense {
		h.headBase = m.Mem.AllocWords(buckets)
	} else {
		h.headBase = m.Mem.AllocLines(buckets)
	}
	return h
}

func (h *hashTable) head(b int) mem.Addr {
	if h.dense {
		return h.headBase.Offset(b)
	}
	return h.headBase + mem.Addr(b)*mem.LineSize
}

// search walks the chain for key, as the paper's hashtable_search; the
// walk's loads join the enclosing transaction's read set, so long
// chains inflate the footprint exactly as in Dedup.
func (h *hashTable) search(t *machine.Thread, key uint64) (node mem.Addr, found bool) {
	var result mem.Addr
	t.Func("hashtable_search", func() {
		t.At("chain_walk")
		p := mem.Addr(t.Load(h.head(h.hash(key))))
		for p != 0 {
			if t.Load(fieldAddr(p, fKey)) == key {
				result = p
				return
			}
			p = mem.Addr(t.Load(fieldAddr(p, fNext)))
		}
	})
	return result, result != 0
}

// insert prepends a new node for key (caller must hold the critical
// section; duplicate keys allowed for simplicity).
func (h *hashTable) insert(t *machine.Thread, key, val uint64) {
	t.Func("hashtable_insert", func() {
		n := h.pool.alloc(t)
		b := h.head(h.hash(key))
		t.Store(fieldAddr(n, fKey), key)
		t.Store(fieldAddr(n, fVal), val)
		t.Store(fieldAddr(n, fNext), mem.Word(t.Load(b)))
		t.Store(b, mem.Word(n))
	})
}

// sortedList is a singly linked sorted list (Synchrobench linkedlist):
// long transactional traversals build large read sets.
type sortedList struct {
	head mem.Addr // head pointer cell (its own line)
	pool *nodePool
}

func newSortedList(m *machine.Machine, threads, poolPerThread int) *sortedList {
	return &sortedList{head: m.Mem.AllocLines(1), pool: newNodePool(m, threads, poolPerThread)}
}

// insert adds key in sorted position; returns false if present.
func (l *sortedList) insert(t *machine.Thread, key uint64) bool {
	ok := false
	t.Func("list_insert", func() {
		// prev is the address of the pointer cell to relink.
		prev := l.head
		cur := mem.Addr(t.Load(prev))
		for cur != 0 {
			k := t.Load(fieldAddr(cur, fKey))
			if k == key {
				return
			}
			if k > key {
				break
			}
			prev = fieldAddr(cur, fNext)
			cur = mem.Addr(t.Load(prev))
		}
		n := l.pool.alloc(t)
		t.Store(fieldAddr(n, fKey), key)
		t.Store(fieldAddr(n, fNext), mem.Word(cur))
		t.Store(prev, mem.Word(n))
		ok = true
	})
	return ok
}

// contains searches for key.
func (l *sortedList) contains(t *machine.Thread, key uint64) bool {
	found := false
	t.Func("list_contains", func() {
		cur := mem.Addr(t.Load(l.head))
		for cur != 0 {
			k := t.Load(fieldAddr(cur, fKey))
			if k == key {
				found = true
				return
			}
			if k > key {
				return
			}
			cur = mem.Addr(t.Load(fieldAddr(cur, fNext)))
		}
	})
	return found
}

// bst is an unbalanced binary search tree over one-line nodes,
// standing in for the AVL tree, B+ tree, and skip list workloads'
// logarithmic search structures.
type bst struct {
	root mem.Addr // root pointer cell
	pool *nodePool
}

func newBST(m *machine.Machine, threads, poolPerThread int) *bst {
	return &bst{root: m.Mem.AllocLines(1), pool: newNodePool(m, threads, poolPerThread)}
}

func (b *bst) insert(t *machine.Thread, key, val uint64) {
	t.Func("tree_insert", func() {
		slot := b.root
		for {
			cur := mem.Addr(t.Load(slot))
			if cur == 0 {
				n := b.pool.alloc(t)
				t.Store(fieldAddr(n, fKey), key)
				t.Store(fieldAddr(n, fVal), val)
				t.Store(slot, mem.Word(n))
				return
			}
			k := t.Load(fieldAddr(cur, fKey))
			switch {
			case key == k:
				t.Store(fieldAddr(cur, fVal), val)
				return
			case key < k:
				slot = fieldAddr(cur, fLeft)
			default:
				slot = fieldAddr(cur, fRight)
			}
		}
	})
}

func (b *bst) lookup(t *machine.Thread, key uint64) (uint64, bool) {
	var val uint64
	found := false
	t.Func("tree_lookup", func() {
		cur := mem.Addr(t.Load(b.root))
		for cur != 0 {
			k := t.Load(fieldAddr(cur, fKey))
			if k == key {
				val = t.Load(fieldAddr(cur, fVal))
				found = true
				return
			}
			if key < k {
				cur = mem.Addr(t.Load(fieldAddr(cur, fLeft)))
			} else {
				cur = mem.Addr(t.Load(fieldAddr(cur, fRight)))
			}
		}
	})
	return val, found
}

// expectWord builds a Check that asserts a memory word's final value.
func expectWord(addr mem.Addr, want uint64, what string) func(*machine.Machine) error {
	return func(m *machine.Machine) error {
		if got := m.Mem.Load(addr); got != want {
			return fmt.Errorf("%s = %d, want %d", what, got, want)
		}
		return nil
	}
}

// Package mem provides the simulated physical memory for the machine:
// a sparse, word-addressable address space plus cache-line arithmetic,
// a bump allocator that workloads use to lay out their data, and the
// page-indexed per-line Table that memory, the cache directory and the
// HTM engine keep their state in.
//
// Addresses are byte addresses, as on real hardware, but all accesses
// are performed at 8-byte word granularity. Cache lines are 64 bytes,
// matching Intel TSX's conflict-detection granularity.
package mem

import "fmt"

// Word is the machine word: every load and store moves one Word.
type Word = uint64

// Addr is a byte address in the simulated address space.
type Addr uint64

const (
	// LineSize is the cache line size in bytes. Intel TSX detects
	// conflicts at this granularity.
	LineSize = 64
	// WordSize is the access granularity in bytes.
	WordSize = 8
	// WordsPerLine is the number of words on one cache line.
	WordsPerLine = LineSize / WordSize

	// Limit is the size of the simulated address space: 4 GiB, 64
	// times the largest workload footprint (clomp's 64 MiB zone
	// array). Allocating or accessing at or past it panics, as an
	// unaligned access does.
	Limit Addr = 1 << 32

	heapBase = 1 << 16 // the allocator's first address

	// Table pages cover 4 KiB of address space: 64 lines. Small pages
	// keep a random scatter over a large array (clomp's input 3) from
	// backing many more records than lines it touches.
	pageShift    = 12
	pageBytes    = 1 << pageShift
	pageMask     = pageBytes - 1
	linesPerPage = pageBytes / LineSize
)

// Line returns the cache line address containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// WordAligned reports whether a is aligned to the word size.
func (a Addr) WordAligned() bool { return a%WordSize == 0 }

// Offset returns a+i*WordSize: the address of the i'th word after a.
func (a Addr) Offset(i int) Addr { return a + Addr(i)*WordSize }

// LineIndex returns the global index of the cache line containing a.
func (a Addr) LineIndex() uint64 { return uint64(a) / LineSize }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Table is a sparse per-line array over the simulated address space:
// a slice indexed by 4 KiB page number whose pages of entries are
// allocated on first touch, so a page is never copied once allocated
// and an entry pointer stays valid for the table's lifetime. An entry
// no access has touched reads as E's zero value. The zero Table is
// empty and ready to use.
type Table[E any] struct {
	pages []*[linesPerPage]E
	n     int // allocated pages
}

// pageIndex returns the page number of a, panicking past Limit.
func pageIndex(a Addr) uint64 {
	if a >= Limit {
		panic(fmt.Sprintf("mem: access at %s past the address-space limit %s", a, Limit))
	}
	return uint64(a >> pageShift)
}

// Get returns the entry of the line containing a, or nil when no entry
// on its page was ever touched.
func (t *Table[E]) Get(a Addr) *E {
	if pn := pageIndex(a); pn < uint64(len(t.pages)) {
		if p := t.pages[pn]; p != nil {
			return &p[a&pageMask/LineSize]
		}
	}
	return nil
}

// At returns the entry of the line containing a, allocating its page on
// first touch.
func (t *Table[E]) At(a Addr) *E {
	if e := t.Get(a); e != nil {
		return e
	}
	return t.alloc(a)
}

func (t *Table[E]) alloc(a Addr) *E {
	pn := int(a >> pageShift)
	if pn >= len(t.pages) {
		t.pages = append(t.pages, make([]*[linesPerPage]E, pn+1-len(t.pages))...)
	}
	p := new([linesPerPage]E)
	t.pages[pn] = p
	t.n++
	return &p[a&pageMask/LineSize]
}

// Range calls f with every entry on an allocated page, in address
// order, together with its line address.
func (t *Table[E]) Range(f func(line Addr, e *E)) {
	for pn, p := range t.pages {
		if p == nil {
			continue
		}
		base := Addr(pn) << pageShift
		for i := range p {
			f(base+Addr(i)*LineSize, &p[i])
		}
	}
}

// Memory is a sparse simulated physical memory. The zero value is not
// usable; call NewMemory. Memory is not safe for concurrent use: the
// machine's scheduler serializes all accesses.
type Memory struct {
	lines Table[[WordsPerLine]Word]
	brk   Addr // bump-allocator frontier
}

// NewMemory returns an empty memory whose allocator starts at a
// non-zero base, so address 0 is never handed out and can act as a
// sentinel.
func NewMemory() *Memory {
	return &Memory{brk: heapBase}
}

// Load returns the word stored at a. Loading from never-written memory
// returns zero, as hardware-zeroed pages would. Panics if a is not
// word-aligned: simulated workloads are expected to be well-formed.
func (m *Memory) Load(a Addr) Word {
	mustAligned(a)
	if l := m.lines.Get(a); l != nil {
		return l[a%LineSize/WordSize]
	}
	return 0
}

// Store writes v to the word at a.
func (m *Memory) Store(a Addr, v Word) {
	mustAligned(a)
	m.lines.At(a)[a%LineSize/WordSize] = v
}

// Alloc reserves n bytes and returns the base address, aligned to align
// (which must be a power of two, at least WordSize). Allocations never
// overlap and are never reclaimed: the simulator's workloads have
// static footprints. An allocation that would end past Limit panics.
func (m *Memory) Alloc(n int, align Addr) Addr {
	if n <= 0 {
		panic("mem: Alloc size must be positive")
	}
	if align < WordSize || align&(align-1) != 0 {
		panic("mem: Alloc alignment must be a power of two >= WordSize")
	}
	base := (m.brk + align - 1) &^ (align - 1)
	end := base + Addr((n+WordSize-1)&^(WordSize-1))
	if end > Limit {
		panic(fmt.Sprintf("mem: Alloc of %d bytes at %s past the address-space limit %s", n, base, Limit))
	}
	m.brk = end
	return base
}

// AllocWords reserves n words aligned to a cache line and returns the
// base address. This is the common case for workload arrays.
func (m *Memory) AllocWords(n int) Addr { return m.Alloc(n*WordSize, LineSize) }

// AllocLines reserves n full cache lines and returns the base address.
// Use this when a structure must not share lines with its neighbours.
func (m *Memory) AllocLines(n int) Addr { return m.Alloc(n*LineSize, LineSize) }

// Footprint returns the number of bytes currently backed by pages.
func (m *Memory) Footprint() int { return m.lines.n * pageBytes }

// Fingerprint returns a deterministic hash of the memory image: every
// non-zero word together with its address, in address order. Two
// memories with equal contents hash equally regardless of their
// page-allocation history (a page of zeroes is indistinguishable from
// an absent page, as on hardware-zeroed memory).
func (m *Memory) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	m.lines.Range(func(line Addr, l *[WordsPerLine]Word) {
		for i, w := range l {
			if w != 0 {
				mix(uint64(line.Offset(i)))
				mix(w)
			}
		}
	})
	return h
}

func mustAligned(a Addr) {
	if !a.WordAligned() {
		panic(fmt.Sprintf("mem: unaligned access at %s", a))
	}
}

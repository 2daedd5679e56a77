package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadUnwrittenIsZero(t *testing.T) {
	m := NewMemory()
	if got := m.Load(0x10000); got != 0 {
		t.Fatalf("Load of unwritten memory = %d, want 0", got)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	m := NewMemory()
	a := m.AllocWords(4)
	m.Store(a, 42)
	m.Store(a.Offset(3), 7)
	if got := m.Load(a); got != 42 {
		t.Errorf("Load(a) = %d, want 42", got)
	}
	if got := m.Load(a.Offset(3)); got != 7 {
		t.Errorf("Load(a+3w) = %d, want 7", got)
	}
	if got := m.Load(a.Offset(1)); got != 0 {
		t.Errorf("Load(a+1w) = %d, want 0", got)
	}
}

func TestStoreLoadAcrossPages(t *testing.T) {
	m := NewMemory()
	// Write one word in each of several pages, far apart.
	for i := 0; i < 10; i++ {
		a := Addr(pageBytes * (i + 2))
		m.Store(a, Word(i+1))
	}
	for i := 0; i < 10; i++ {
		a := Addr(pageBytes * (i + 2))
		if got := m.Load(a); got != Word(i+1) {
			t.Errorf("page %d: Load = %d, want %d", i, got, i+1)
		}
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := NewMemory()
	a := m.AllocWords(8)
	b := m.AllocWords(8)
	if a == b {
		t.Fatal("two allocations returned the same address")
	}
	if b < a+8*WordSize {
		t.Fatalf("allocations overlap: a=%s b=%s", a, b)
	}
}

func TestAllocLineAlignment(t *testing.T) {
	m := NewMemory()
	m.Alloc(24, WordSize) // misalign the frontier
	a := m.AllocLines(2)
	if a%LineSize != 0 {
		t.Fatalf("AllocLines returned unaligned address %s", a)
	}
	b := m.AllocWords(1)
	if b%LineSize != 0 {
		t.Fatalf("AllocWords returned unaligned address %s", b)
	}
	if b < a+2*LineSize {
		t.Fatalf("AllocWords %s overlaps prior 2-line allocation at %s", b, a)
	}
}

func TestAllocBadArgsPanic(t *testing.T) {
	m := NewMemory()
	for name, f := range map[string]func(){
		"zero size":      func() { m.Alloc(0, LineSize) },
		"negative size":  func() { m.Alloc(-8, LineSize) },
		"non-pow2 align": func() { m.Alloc(8, 24) },
		"tiny align":     func() { m.Alloc(8, 4) },
		"past limit":     func() { m.Alloc(int(Limit), LineSize) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	m := NewMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Load did not panic")
		}
	}()
	m.Load(0x10003)
}

func TestAccessPastLimitPanics(t *testing.T) {
	m := NewMemory()
	last := Limit - WordSize
	m.Store(last, 1) // the last word is still addressable
	if m.Load(last) != 1 {
		t.Fatal("last word of the address space lost its store")
	}
	for name, f := range map[string]func(){
		"load at limit":  func() { m.Load(Limit) },
		"store at limit": func() { m.Store(Limit, 1) },
		"far load":       func() { m.Load(1 << 50) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLineArithmetic(t *testing.T) {
	cases := []struct {
		a    Addr
		line Addr
	}{
		{0, 0}, {63, 0}, {64, 64}, {130, 128}, {0x10008, 0x10000},
	}
	for _, c := range cases {
		if got := c.a.Line(); got != c.line {
			t.Errorf("Line(%s) = %s, want %s", c.a, got, c.line)
		}
	}
	if idx := Addr(128).LineIndex(); idx != 2 {
		t.Errorf("LineIndex(128) = %d, want 2", idx)
	}
}

// Property: a store is always visible to a subsequent load of the same
// address and never disturbs a distinct word.
func TestQuickStoreIsolation(t *testing.T) {
	m := NewMemory()
	f := func(slot1, slot2 uint16, v1, v2 Word) bool {
		a := Addr(0x20000).Offset(int(slot1))
		b := Addr(0x20000).Offset(int(slot2))
		m.Store(a, v1)
		m.Store(b, v2)
		if a == b {
			return m.Load(a) == v2
		}
		return m.Load(a) == v1 && m.Load(b) == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Line() is idempotent and LineIndex is consistent with it.
func TestQuickLineConsistency(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 7) // aligned
		l := a.Line()
		return l.Line() == l && l%LineSize == 0 &&
			a.LineIndex() == uint64(l)/LineSize && l <= a && a-l < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: successive allocations are strictly increasing and disjoint.
func TestQuickAllocMonotonic(t *testing.T) {
	m := NewMemory()
	prevEnd := Addr(0)
	f := func(sz uint8) bool {
		n := int(sz)%512 + 1
		a := m.AllocWords(n)
		ok := a >= prevEnd && a%LineSize == 0
		prevEnd = a + Addr(n*WordSize)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

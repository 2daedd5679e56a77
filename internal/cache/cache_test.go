package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"txsampler/internal/mem"
)

func cfg() Config { return DefaultConfig() }

func TestReadMissThenHit(t *testing.T) {
	h := New(2, cfg())
	a := mem.Addr(0x10000)
	if lat := h.Access(0, a, false); lat != cfg().MissLatency {
		t.Fatalf("first read latency = %d, want miss %d", lat, cfg().MissLatency)
	}
	if lat := h.Access(0, a, false); lat != cfg().HitLatency {
		t.Fatalf("second read latency = %d, want hit %d", lat, cfg().HitLatency)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := New(4, cfg())
	a := mem.Addr(0x10000)
	h.Access(1, a, false)
	h.Access(2, a, false)
	h.Access(3, a, false)
	if lat := h.Access(0, a, true); lat != cfg().RemoteLatency {
		t.Fatalf("write over sharers latency = %d, want remote %d", lat, cfg().RemoteLatency)
	}
	for c := 1; c <= 3; c++ {
		if h.Holds(c, a) {
			t.Errorf("core %d still holds the line after invalidation", c)
		}
	}
	// The writer now owns it: a repeat write is a hit.
	if lat := h.Access(0, a, true); lat != cfg().HitLatency {
		t.Errorf("owner's repeat write latency = %d, want hit %d", lat, cfg().HitLatency)
	}
}

func TestReadDowngradesModified(t *testing.T) {
	h := New(2, cfg())
	a := mem.Addr(0x20000)
	h.Access(0, a, true) // core 0 takes M
	if lat := h.Access(1, a, false); lat != cfg().RemoteLatency {
		t.Fatalf("remote read latency = %d, want %d", lat, cfg().RemoteLatency)
	}
	if !h.Holds(0, a) || !h.Holds(1, a) {
		t.Fatal("a read must leave both copies shared, not invalidate")
	}
	// Both copies are now shared; core 0 re-acquiring ownership must
	// invalidate core 1.
	if lat := h.Access(0, a, true); lat != cfg().RemoteLatency {
		t.Fatalf("upgrade latency = %d, want remote %d", lat, cfg().RemoteLatency)
	}
	if h.Holds(1, a) {
		t.Fatal("upgrade left core 1's copy valid")
	}
}

// Upgrading a copy core 0 alone holds Shared is a miss without remote
// traffic, and happens in place: the other line of a full set stays.
func TestWriteUpgradeOfOwnSharedCopyKeepsLine(t *testing.T) {
	c := Config{Sets: 2, Ways: 2, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	h := New(2, c)
	a, b := mem.Addr(0*64), mem.Addr(2*64) // same set
	h.Access(0, b, false)
	h.Access(0, a, false) // S in core 0; b is the set's LRU way
	if lat := h.Access(0, a, true); lat != c.MissLatency {
		t.Fatalf("upgrade latency = %d, want miss %d", lat, c.MissLatency)
	}
	if !h.Holds(0, a) || !h.Holds(0, b) {
		t.Fatal("in-place upgrade lost a line")
	}
}

func TestSetOverflowEvictsLRU(t *testing.T) {
	c := Config{Sets: 2, Ways: 2, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	h := New(1, c)
	// Four lines all mapping to set 0 (line index even).
	lines := []mem.Addr{0 * 64, 4 * 64, 8 * 64, 12 * 64}
	for _, l := range lines[:2] {
		h.Access(0, l, false)
	}
	h.Access(0, lines[0], false) // make lines[1] the LRU
	h.Access(0, lines[2], false)
	if !h.Holds(0, lines[0]) || !h.Holds(0, lines[2]) {
		t.Fatal("expected lines 0 and 2 resident")
	}
	if h.Holds(0, lines[1]) {
		t.Fatal("evicted line still resident")
	}
	if lat := h.Access(0, lines[1], false); lat != c.MissLatency {
		t.Fatalf("re-read of the evicted line latency = %d, want miss %d", lat, c.MissLatency)
	}
}

// A silent eviction drops the evicting core from the line's directory
// entry: another core's write to the line is then a plain miss, with no
// invalidation round trip to the core that no longer holds it.
func TestEvictionClearsDirectory(t *testing.T) {
	c := Config{Sets: 2, Ways: 1, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	h := New(2, c)
	a, b := mem.Addr(0*64), mem.Addr(4*64) // same set
	h.Access(0, a, true)
	h.Access(0, b, true) // evicts a
	if h.Holds(0, a) {
		t.Fatal("evicted line still resident")
	}
	if lat := h.Access(1, a, true); lat != c.MissLatency {
		t.Fatalf("write to an evicted line latency = %d, want miss %d", lat, c.MissLatency)
	}
	// Likewise for a line evicted while shared.
	h.Access(0, a, false) // core 0 shares a with owner 1, evicting b
	h.Access(0, b, false) // evicts a again
	if lat := h.Access(1, a, true); lat != c.MissLatency {
		t.Fatalf("write to a line its other sharer evicted latency = %d, want miss %d", lat, c.MissLatency)
	}
}

// Directory entries live in per-page tables: once a line's page exists,
// an access allocates nothing, even for a line an eviction untracked.
func TestAccessAllocatesNothing(t *testing.T) {
	c := Config{Sets: 2, Ways: 1, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	h := New(2, c)
	a, b := mem.Addr(0x10000), mem.Addr(0x10000+2*64) // one page, one set
	h.Access(0, a, false)
	allocs := testing.AllocsPerRun(100, func() {
		h.Access(1, a, true)  // invalidates core 0's copy
		h.Access(0, b, true)  // fills core 0's free way
		h.Access(0, a, false) // evicts b, downgrades core 1
		h.Access(0, a, false) // hit
	})
	if allocs != 0 {
		t.Fatalf("Access allocated %v times per run, want 0", allocs)
	}
}

func TestDistinctLinesNoInterference(t *testing.T) {
	h := New(2, cfg())
	a, b := mem.Addr(0x1000), mem.Addr(0x1040) // adjacent lines
	h.Access(0, a, true)
	if lat := h.Access(1, b, true); lat != cfg().MissLatency {
		t.Fatalf("write to a different line latency = %d, want miss %d", lat, cfg().MissLatency)
	}
	if !h.Holds(0, a) || !h.Holds(1, b) {
		t.Fatal("both cores should retain their lines")
	}
}

func TestSameLineDifferentWordsConflict(t *testing.T) {
	// False sharing at the coherence level: words 0 and 7 of one line.
	h := New(2, cfg())
	a := mem.Addr(0x2000)
	h.Access(0, a, true)
	if lat := h.Access(1, a+56, true); lat != cfg().RemoteLatency {
		t.Fatalf("false-sharing write latency = %d, want remote %d", lat, cfg().RemoteLatency)
	}
	if h.Holds(0, a) {
		t.Fatal("false-sharing write left core 0's copy valid")
	}
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero cores":    func() { New(0, cfg()) },
		"too many":      func() { New(65, cfg()) },
		"non-pow2 sets": func() { New(2, Config{Sets: 3, Ways: 1}) },
		"zero ways":     func() { New(2, Config{Sets: 4, Ways: 0}) },
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

// Property: under arbitrary access sequences a write leaves no other
// core holding the line (single writer), a read hits exactly when the
// core already held the line, and a write hits exactly when the core
// held the line Modified: it held the line, no other core did, and no
// other core read the line since the core last wrote it. (A core
// alone holding the line Shared, after a read miss, pays a miss to
// upgrade.) The 16 lines map to distinct sets, so none is evicted.
func TestQuickSingleWriter(t *testing.T) {
	type op struct {
		Core  uint8
		Slot  uint8
		Write bool
	}
	f := func(ops []op) bool {
		h := New(4, cfg())
		var owner [16]int // 1 + the core holding the slot's line Modified, or 0
		for _, o := range ops {
			core, slot := int(o.Core)%4, o.Slot%16
			a := mem.Addr(0x4000 + uint64(slot)*64)
			held, others := h.Holds(core, a), false
			for other := 0; other < 4; other++ {
				others = others || other != core && h.Holds(other, a)
			}
			hit := h.Access(core, a, o.Write) == cfg().HitLatency
			if o.Write {
				if hit != (held && !others && owner[slot] == core+1) {
					return false
				}
				owner[slot] = core + 1
				// After a write, no other core may hold the line.
				for other := 0; other < 4; other++ {
					if other != core && h.Holds(other, a) {
						return false
					}
				}
				continue
			}
			if hit != held {
				return false
			}
			if owner[slot] != core+1 {
				owner[slot] = 0
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency is always one of the three configured values.
func TestQuickLatencyDomain(t *testing.T) {
	h := New(3, cfg())
	f := func(core, slot uint8, write bool) bool {
		lat := h.Access(int(core)%3, mem.Addr(uint64(slot)*64), write)
		c := cfg()
		return lat == c.HitLatency || lat == c.MissLatency || lat == c.RemoteLatency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ReadHits must leave a hierarchy exactly as the same number of
// Access read hits does: LRU stamps and use ticks.
func TestReadHitsMatchesAccess(t *testing.T) {
	c := Config{Sets: 2, Ways: 2, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	a, b := mem.Addr(0*64), mem.Addr(2*64) // same set
	build := func() *Hierarchy {
		h := New(2, c)
		h.Access(0, a, false)
		h.Access(0, b, true)
		h.Access(1, a, false)
		return h
	}
	want, got := build(), build()
	for i := 0; i < 7; i++ {
		want.Access(0, a, false)
	}
	got.ReadHits(0, a, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadHits(7) state %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("ReadHits on a line the core does not hold did not panic")
		}
	}()
	got.ReadHits(1, b, 1)
}

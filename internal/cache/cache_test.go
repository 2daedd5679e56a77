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
	r := h.Access(0, a, false)
	if r.Hit || r.Latency != cfg().MissLatency {
		t.Fatalf("first read: hit=%v lat=%d, want miss lat=%d", r.Hit, r.Latency, cfg().MissLatency)
	}
	r = h.Access(0, a, false)
	if !r.Hit || r.Latency != cfg().HitLatency {
		t.Fatalf("second read: hit=%v lat=%d, want hit lat=%d", r.Hit, r.Latency, cfg().HitLatency)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := New(4, cfg())
	a := mem.Addr(0x10000)
	h.Access(1, a, false)
	h.Access(2, a, false)
	h.Access(3, a, false)
	r := h.Access(0, a, true)
	if r.Invalidated != 0b1110 {
		t.Fatalf("invalidated %#b, want cores 1,2,3", r.Invalidated)
	}
	if r.Latency != cfg().RemoteLatency {
		t.Fatalf("write over sharers latency = %d, want remote %d", r.Latency, cfg().RemoteLatency)
	}
	for c := 1; c <= 3; c++ {
		if h.Holds(c, a) {
			t.Errorf("core %d still holds the line after invalidation", c)
		}
	}
	// The writer now owns it: a repeat write is a hit.
	if r := h.Access(0, a, true); !r.Hit {
		t.Error("owner's repeat write missed")
	}
}

func TestReadDowngradesModified(t *testing.T) {
	h := New(2, cfg())
	a := mem.Addr(0x20000)
	h.Access(0, a, true) // core 0 takes M
	r := h.Access(1, a, false)
	if r.Hit {
		t.Fatal("remote read of modified line reported hit")
	}
	if r.Latency != cfg().RemoteLatency {
		t.Fatalf("remote read latency = %d, want %d", r.Latency, cfg().RemoteLatency)
	}
	if r.Invalidated != 0 {
		t.Fatalf("read should not invalidate, got %#b", r.Invalidated)
	}
	// Both copies are now shared; core 0 re-acquiring ownership must
	// invalidate core 1.
	r = h.Access(0, a, true)
	if r.Invalidated != 1<<1 {
		t.Fatalf("upgrade invalidated %#b, want core 1", r.Invalidated)
	}
}

func TestWriteUpgradeOfOwnSharedCopyKeepsLine(t *testing.T) {
	h := New(2, cfg())
	a := mem.Addr(0x30000)
	h.Access(0, a, false) // S in core 0
	r := h.Access(0, a, true)
	if r.Evicted {
		t.Fatal("in-place upgrade caused an eviction")
	}
	if !h.Holds(0, a) {
		t.Fatal("line lost during upgrade")
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
	r := h.Access(0, lines[2], false)
	if !r.Evicted || r.EvictedLine != lines[1] {
		t.Fatalf("evicted %v/%v, want %v", r.Evicted, r.EvictedLine, lines[1])
	}
	if !h.Holds(0, lines[0]) || !h.Holds(0, lines[2]) {
		t.Fatal("expected lines 0 and 2 resident")
	}
	if h.Holds(0, lines[1]) {
		t.Fatal("evicted line still resident")
	}
}

func TestEvictionClearsDirectory(t *testing.T) {
	c := Config{Sets: 2, Ways: 1, HitLatency: 1, MissLatency: 10, RemoteLatency: 20}
	h := New(2, c)
	a, b := mem.Addr(0*64), mem.Addr(4*64) // same set
	h.Access(0, a, true)
	h.Access(0, b, true) // evicts a
	// Core 1 writing a must not see core 0 as owner anymore.
	r := h.Access(1, a, true)
	if r.Invalidated != 0 {
		t.Fatalf("write to evicted line invalidated %#b, want none", r.Invalidated)
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
	r := h.Access(1, b, true)
	if r.Invalidated != 0 {
		t.Fatalf("write to different line invalidated %#b", r.Invalidated)
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
	r := h.Access(1, a+56, true)
	if r.Invalidated != 1<<0 {
		t.Fatalf("false-sharing write invalidated %#b, want core 0", r.Invalidated)
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

// Property: at most one core ever observes write-hit status for a line
// without an intervening miss — i.e. single-writer is preserved under
// arbitrary access sequences.
func TestQuickSingleWriter(t *testing.T) {
	type op struct {
		Core  uint8
		Slot  uint8
		Write bool
	}
	h := New(4, cfg())
	f := func(ops []op) bool {
		for _, o := range ops {
			core := int(o.Core) % 4
			a := mem.Addr(0x4000 + uint64(o.Slot%16)*64)
			h.Access(core, a, o.Write)
			if o.Write {
				// After a write, no other core may write-hit.
				for other := 0; other < 4; other++ {
					if other == core {
						continue
					}
					if h.Holds(other, a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency is always one of the three configured values.
func TestQuickLatencyDomain(t *testing.T) {
	h := New(3, cfg())
	f := func(core, slot uint8, write bool) bool {
		r := h.Access(int(core)%3, mem.Addr(uint64(slot)*64), write)
		c := cfg()
		return r.Latency == c.HitLatency || r.Latency == c.MissLatency || r.Latency == c.RemoteLatency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ReadHits must leave a hierarchy exactly as the same number of
// Access read hits does: LRU stamps, use ticks and the hit count.
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

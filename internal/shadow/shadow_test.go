package shadow

import (
	"testing"
	"testing/quick"

	"txsampler/internal/mem"
)

func TestFirstAccessNeverContends(t *testing.T) {
	m := New()
	if got := m.Observe(0, 0x1000, true, 10); got != NoSharing {
		t.Fatalf("first access = %v", got)
	}
}

func TestSameThreadNeverContends(t *testing.T) {
	m := New()
	m.Observe(1, 0x1000, true, 10)
	if got := m.Observe(1, 0x1000, true, 20); got != NoSharing {
		t.Fatalf("same-thread reaccess = %v", got)
	}
}

func TestTrueSharingSameWord(t *testing.T) {
	m := New()
	m.Observe(0, 0x1000, true, 10)
	if got := m.Observe(1, 0x1000, false, 20); got != TrueSharing {
		t.Fatalf("remote read after write of same word = %v, want true sharing", got)
	}
}

func TestFalseSharingDifferentWords(t *testing.T) {
	m := New()
	m.Observe(0, 0x1000, true, 10)
	if got := m.Observe(1, 0x1008, true, 20); got != FalseSharing {
		t.Fatalf("remote write to sibling word = %v, want false sharing", got)
	}
}

func TestReadReadNeverContends(t *testing.T) {
	m := New()
	m.Observe(0, 0x1000, false, 10)
	if got := m.Observe(1, 0x1000, false, 20); got != NoSharing {
		t.Fatalf("read-read = %v, want none", got)
	}
	if got := m.Observe(2, 0x1008, false, 30); got != NoSharing {
		t.Fatalf("read-read sibling = %v, want none", got)
	}
}

func TestWriteAfterRemoteReadContends(t *testing.T) {
	m := New()
	m.Observe(0, 0x2000, false, 10)
	if got := m.Observe(1, 0x2000, true, 20); got != TrueSharing {
		t.Fatalf("write after remote read = %v, want true sharing", got)
	}
}

func TestThresholdWindow(t *testing.T) {
	m := New()
	m.Threshold = 100
	m.Observe(0, 0x3000, true, 10)
	if got := m.Observe(1, 0x3000, true, 200); got != NoSharing {
		t.Fatalf("accesses %d cycles apart with window 100 = %v", 190, got)
	}
	m.Observe(0, 0x3000, true, 300)
	if got := m.Observe(1, 0x3000, true, 350); got != TrueSharing {
		t.Fatalf("accesses 50 apart with window 100 = %v", got)
	}
}

func TestOutOfOrderTimestampsTolerated(t *testing.T) {
	// Thread clocks are only loosely synchronized: an earlier
	// timestamp arriving after a later one must still classify.
	m := New()
	m.Threshold = 100
	m.Observe(0, 0x4000, true, 500)
	if got := m.Observe(1, 0x4000, true, 460); got != TrueSharing {
		t.Fatalf("out-of-order contention = %v", got)
	}
}

func TestDistinctLinesIndependent(t *testing.T) {
	m := New()
	m.Observe(0, 0x5000, true, 10)
	if got := m.Observe(1, 0x5040, true, 20); got != NoSharing {
		t.Fatalf("adjacent line = %v, want none", got)
	}
}

func TestTrueSharingTakesPrecedenceOverStaleWord(t *testing.T) {
	// Thread 0 writes word A; thread 1 writes word B (false sharing);
	// thread 0 then writes word B: the word shadow shows thread 1 →
	// true sharing.
	m := New()
	m.Observe(0, 0x6000, true, 10)
	m.Observe(1, 0x6008, true, 20)
	if got := m.Observe(0, 0x6008, true, 30); got != TrueSharing {
		t.Fatalf("rewrite of remote word = %v, want true sharing", got)
	}
}

func TestFootprintGrowsPerAddress(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.Observe(0, mem.Addr(0x7000+i*8), false, uint64(i))
	}
	// 10 words on 2 lines (64-byte lines): 10 word entries + 2 line
	// entries.
	if m.Footprint() != 12 {
		t.Fatalf("footprint = %d, want 12", m.Footprint())
	}
}

func TestSharingString(t *testing.T) {
	for s, w := range map[Sharing]string{NoSharing: "none", TrueSharing: "true-sharing", FalseSharing: "false-sharing"} {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// Property: classification is TrueSharing only if the same word was
// previously touched by a different thread; FalseSharing implies the
// line was contended; counters always sum consistently.
func TestQuickClassificationConsistency(t *testing.T) {
	m := New()
	m.Threshold = 1 << 62
	lastWordTID := map[mem.Addr]int{}
	lastLine := map[mem.Addr]struct {
		tid   int
		write bool
		init  bool
	}{}
	now := uint64(0)
	f := func(tid8, slot uint8, write bool) bool {
		tid := int(tid8) % 4
		addr := mem.Addr(0x8000 + uint64(slot%32)*8)
		now += 10
		got := m.Observe(tid, addr, write, now)
		line := addr.Line()
		prev := lastLine[line]
		contended := prev.init && prev.tid != tid && (prev.write || write)
		var want Sharing
		if contended {
			if wt, ok := lastWordTID[addr]; ok && wt != tid {
				want = TrueSharing
			} else {
				want = FalseSharing
			}
		}
		lastWordTID[addr] = tid
		lastLine[line] = struct {
			tid   int
			write bool
			init  bool
		}{tid, write, true}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

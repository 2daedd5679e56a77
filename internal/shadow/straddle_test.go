package shadow

import (
	"testing"

	"txsampler/internal/mem"
)

// TestLineStraddleBoundary: the last word of one line and the first
// word of the next are 8 bytes apart but must never contend — line
// classification is by line base, not by byte distance.
func TestLineStraddleBoundary(t *testing.T) {
	const base = mem.Addr(0x1000)
	last := base.Offset(mem.WordsPerLine - 1) // 0x1038: final word of the line
	next := base.Offset(mem.WordsPerLine)     // 0x1040: first word of the next line

	m := New()
	m.Observe(0, last, true, 10)
	if got := m.Observe(1, next, true, 20); got != NoSharing {
		t.Fatalf("straddling accesses %s/%s classified %v, want none", last, next, got)
	}
	// The same pair within one line IS false sharing: the straddle
	// result above is the line boundary, not a timing accident.
	if got := m.Observe(1, base, true, 30); got != FalseSharing {
		t.Fatalf("same-line sibling %s after %s = %v, want false sharing", base, last, got)
	}
}

// TestAdjacentWordAllOffsets: a remote write to any of the other
// WordsPerLine-1 words of a written line is false sharing, and the
// same word is true sharing — at every offset, not just word 0.
func TestAdjacentWordAllOffsets(t *testing.T) {
	for w := 0; w < mem.WordsPerLine; w++ {
		base := mem.Addr(0x2000 + uint64(w)*0x100) // fresh line per sub-case
		owned := base.Offset(w)
		m := New()
		m.Observe(0, owned, true, 10)
		now := uint64(20)
		for o := 0; o < mem.WordsPerLine; o++ {
			m2 := New()
			m2.Observe(0, owned, true, 10)
			want := FalseSharing
			if o == w {
				want = TrueSharing
			}
			if got := m2.Observe(1, base.Offset(o), true, 20); got != want {
				t.Errorf("owner word %d, remote word %d: %v, want %v", w, o, got, want)
			}
		}
		// Sequential sweep over the same shadow: every sibling word
		// contends against the previous toucher of the line. Tids
		// alternate in visit order so each access is remote to the
		// last.
		k := 0
		for o := 0; o < mem.WordsPerLine; o++ {
			if o == w {
				continue
			}
			tid := 1 + k%2
			k++
			if got := m.Observe(tid, base.Offset(o), true, now); got != FalseSharing {
				t.Errorf("sweep owner=%d remote word %d (tid %d): %v, want false sharing", w, o, tid, got)
			}
			now += 10
		}
	}
}

// TestContentionWindowBoundary: within() is strict — two accesses
// exactly Threshold cycles apart do not contend; one cycle closer
// they do.
func TestContentionWindowBoundary(t *testing.T) {
	const window = 100
	cases := []struct {
		name string
		gap  uint64
		want Sharing
	}{
		{"one-inside", window - 1, TrueSharing},
		{"exactly-at", window, NoSharing},
		{"one-outside", window + 1, NoSharing},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New()
			m.Threshold = window
			m.Observe(0, 0x3000, true, 1000)
			if got := m.Observe(1, 0x3000, true, 1000+c.gap); got != c.want {
				t.Fatalf("gap %d with window %d = %v, want %v", c.gap, window, got, c.want)
			}
			// Same boundary holds with the timestamps reversed (loosely
			// synchronized thread clocks).
			m2 := New()
			m2.Threshold = window
			m2.Observe(0, 0x3000, true, 1000+c.gap)
			if got := m2.Observe(1, 0x3000, true, 1000); got != c.want {
				t.Fatalf("reversed gap %d with window %d = %v, want %v", c.gap, window, got, c.want)
			}
		})
	}
}

// TestStraddleFootprint: a straddling pair costs two line entries and
// two word entries — the shadow never aliases across the boundary.
func TestStraddleFootprint(t *testing.T) {
	m := New()
	base := mem.Addr(0x4000)
	m.Observe(0, base.Offset(mem.WordsPerLine-1), true, 10)
	m.Observe(0, base.Offset(mem.WordsPerLine), true, 20)
	if m.Footprint() != 4 {
		t.Fatalf("footprint = %d, want 4 (2 lines + 2 words)", m.Footprint())
	}
}

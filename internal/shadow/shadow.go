// Package shadow implements the profiler's contention analysis
// (paper §3.3): every sampled memory access updates a per-cache-line
// and a per-address shadow memory recording who touched what, when,
// and how. A sample whose line was recently touched by a different
// thread — with at least one of the two accesses a store — is
// contention; the per-address shadow then separates true sharing
// (same word) from false sharing (same line, different words).
package shadow

import "txsampler/internal/mem"

// Sharing classifies one sampled access.
type Sharing uint8

const (
	// NoSharing: the access did not contend.
	NoSharing Sharing = iota
	// TrueSharing: another thread recently accessed the same word.
	TrueSharing
	// FalseSharing: another thread recently accessed a different word
	// on the same cache line.
	FalseSharing
)

func (s Sharing) String() string {
	switch s {
	case TrueSharing:
		return "true-sharing"
	case FalseSharing:
		return "false-sharing"
	default:
		return "none"
	}
}

type record struct {
	tid     int
	time    uint64
	isWrite bool
	valid   bool
}

// Memory is the two-level shadow memory. Entries are created lazily,
// one per sampled line and word — memory use is proportional to the
// number of distinct sampled addresses, which is what keeps the
// paper's collector under 5MB per thread.
type Memory struct {
	// Threshold is the contention window P in cycles: two accesses
	// further apart than this are not considered contending
	// (paper §3.3 uses 100ms of wall clock).
	Threshold uint64

	byLine map[mem.Addr]record
	byWord map[mem.Addr]record
}

// DefaultThreshold approximates the paper's 100ms window in simulated
// cycles: effectively "recent" for any workload this simulator runs.
const DefaultThreshold = 5_000_000

// New returns an empty shadow memory with the DefaultThreshold
// contention window.
func New() *Memory {
	return &Memory{
		Threshold: DefaultThreshold,
		byLine:    make(map[mem.Addr]record),
		byWord:    make(map[mem.Addr]record),
	}
}

// Observe processes one sampled access and classifies it. The three
// contention conditions of §3.3: (1) the line's previous sampled
// access came from a different thread, (2) at least one of the two
// accesses is a store, and (3) they are closer than Threshold cycles.
func (m *Memory) Observe(tid int, addr mem.Addr, isWrite bool, now uint64) Sharing {
	line := addr.Line()
	prev := m.byLine[line]

	result := NoSharing
	if prev.valid && prev.tid != tid && (prev.isWrite || isWrite) && within(now, prev.time, m.Threshold) {
		// Contention. Same word from a different thread → true
		// sharing; otherwise the conflicting access hit a different
		// word on the line → false sharing.
		if w := m.byWord[addr]; w.valid && w.tid != tid {
			result = TrueSharing
		} else {
			result = FalseSharing
		}
	}

	r := record{tid: tid, time: now, isWrite: isWrite, valid: true}
	m.byLine[line] = r
	m.byWord[addr] = r
	return result
}

// Footprint returns the number of shadow entries, a proxy for the
// collector's memory overhead.
func (m *Memory) Footprint() int { return len(m.byLine) + len(m.byWord) }

func within(a, b, window uint64) bool {
	if a < b {
		a, b = b, a
	}
	return a-b < window
}

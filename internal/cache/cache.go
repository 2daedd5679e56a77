// Package cache models the memory hierarchy the simulated machine runs
// on: one private set-associative L1 cache per core kept coherent by an
// invalidation-based directory (MESI-style, collapsed to the states the
// simulation needs: Modified, Shared, Invalid).
//
// The cache serves two purposes. First, it supplies access latencies,
// so workload timing reflects locality and sharing: a write to a line
// another core holds costs an invalidation round-trip, which is how
// false sharing becomes visible in the cycle counts. Second, its set
// geometry is reused by the HTM engine to decide capacity aborts: a
// transaction whose footprint overflows an L1 set cannot be tracked by
// the hardware, exactly as on Intel TSX.
package cache

import (
	"fmt"
	"math/bits"

	"txsampler/internal/mem"
)

// Config describes the per-core L1 geometry and the latency model.
// All latencies are in cycles.
type Config struct {
	Sets int // number of sets per L1 (power of two)
	Ways int // associativity

	HitLatency    int // L1 hit
	MissLatency   int // fill from memory/LLC
	RemoteLatency int // fill or upgrade requiring another core's copy
}

// DefaultConfig mirrors the paper's evaluation machine closely enough
// for shape: a 64KB 8-way L1 with 64-byte lines (128 sets).
func DefaultConfig() Config {
	return Config{Sets: 128, Ways: 8, HitLatency: 4, MissLatency: 60, RemoteLatency: 90}
}

// Validate reports whether the geometry and latency model are usable.
// The zero Config is rejected; callers treating it as "use defaults"
// must substitute DefaultConfig before validating.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	}
	if c.HitLatency < 0 || c.MissLatency < 0 || c.RemoteLatency < 0 {
		return fmt.Errorf("cache: negative latency (hit=%d miss=%d remote=%d)",
			c.HitLatency, c.MissLatency, c.RemoteLatency)
	}
	return nil
}

// SetIndex returns the L1 set a line maps to.
func (c Config) SetIndex(line mem.Addr) int {
	return int(line.LineIndex() % uint64(c.Sets))
}

type way struct {
	line  mem.Addr
	valid bool
	lru   uint64 // last-use tick; larger = more recent
}

type l1 struct {
	sets [][]way
	tick uint64
}

func newL1(cfg Config) *l1 {
	c := &l1{sets: make([][]way, cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c
}

// lookup returns the way holding line, or nil.
func (c *l1) lookup(set int, line mem.Addr) *way {
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.line == line {
			return w
		}
	}
	return nil
}

// insert places line into set, evicting LRU if needed. Returns the
// evicted line and whether an eviction happened.
func (c *l1) insert(set int, line mem.Addr) (mem.Addr, bool) {
	c.tick++
	victim := &c.sets[set][0]
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if !w.valid {
			victim = w
			break
		}
		if w.lru < victim.lru {
			victim = w
		}
	}
	evicted, had := victim.line, victim.valid
	*victim = way{line: line, valid: true, lru: c.tick}
	return evicted, had
}

func (c *l1) touch(w *way) {
	c.tick++
	w.lru = c.tick
}

func (c *l1) invalidate(set int, line mem.Addr) {
	if w := c.lookup(set, line); w != nil {
		w.valid = false
	}
}

// dirEntry tracks which cores hold a line. A nonzero owner means core
// owner-1 has the line Modified; otherwise sharers holds the Shared
// copies. The zero entry is an untracked line.
type dirEntry struct {
	sharers uint64 // bitmask of cores with a shared copy
	owner   uint8  // 1 + the core with the modified copy, or 0
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg   Config
	cores []*l1
	dir   mem.Table[dirEntry]
}

// New returns a hierarchy with n private L1 caches.
func New(n int, cfg Config) *Hierarchy {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("cache: core count %d out of range [1,64]", n))
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < n; i++ {
		h.cores = append(h.cores, newL1(cfg))
	}
	return h
}

// Access performs a load (write=false) or store (write=true) by core to
// the cache line containing a, updating coherence state, and returns
// its latency: HitLatency when core already held the line (for a
// store, held it Modified), RemoteLatency when another core's copy had
// to be downgraded or invalidated, MissLatency otherwise. The HTM
// engine performs its own conflict detection on read/write sets.
func (h *Hierarchy) Access(core int, a mem.Addr, write bool) int {
	line := a.Line()
	set := h.cfg.SetIndex(line)
	c := h.cores[core]
	w := c.lookup(set, line)
	if !write && w != nil {
		c.touch(w)
		return h.cfg.HitLatency
	}
	e := h.dir.At(line)
	self := uint8(core + 1)
	lat := h.cfg.MissLatency
	if !write {
		// Read miss: downgrade a remote M copy if present.
		if e.owner != 0 && e.owner != self {
			lat = h.cfg.RemoteLatency
			e.sharers |= 1 << (e.owner - 1)
			e.owner = 0
		}
		e.sharers |= 1 << uint(core)
		h.fill(core, set, line)
		return lat
	}

	// Write.
	if w != nil && e.owner == self {
		c.touch(w)
		return h.cfg.HitLatency
	}
	// Invalidate every other copy.
	if e.owner != 0 && e.owner != self {
		lat = h.cfg.RemoteLatency
		h.cores[e.owner-1].invalidate(set, line)
	}
	for others := e.sharers &^ (1 << uint(core)); others != 0; others &= others - 1 {
		lat = h.cfg.RemoteLatency
		h.cores[bits.TrailingZeros64(others)].invalidate(set, line)
	}
	e.sharers = 0
	e.owner = self
	if w != nil {
		c.touch(w) // upgrade in place: no fill needed
	} else {
		h.fill(core, set, line)
	}
	return lat
}

// fill places line in core's L1 set and, when that evicts another
// line, updates the evicted line's directory entry: a silent eviction
// drops core as its owner or sharer, and an entry left with no holder
// is the zero entry, untracked.
func (h *Hierarchy) fill(core, set int, line mem.Addr) {
	evicted, had := h.cores[core].insert(set, line)
	if !had {
		return
	}
	e := h.dir.At(evicted)
	if e.owner == uint8(core+1) {
		e.owner = 0
	}
	e.sharers &^= 1 << uint(core)
}

// Holds reports whether core currently caches the line containing a.
// Used by tests and by the machine's spin-wait fast-forward.
func (h *Hierarchy) Holds(core int, a mem.Addr) bool {
	line := a.Line()
	return h.cores[core].lookup(h.cfg.SetIndex(line), line) != nil
}

// ReadHits replays n back-to-back read hits by core on the line
// containing a, which core's L1 must hold: the LRU stamp and the L1's
// use tick end exactly where n Access(core, a, false) calls would
// leave them. The machine's spin-wait fast-forward applies a sleeping
// spinner's skipped loads with it.
func (h *Hierarchy) ReadHits(core int, a mem.Addr, n uint64) {
	line := a.Line()
	c := h.cores[core]
	w := c.lookup(h.cfg.SetIndex(line), line)
	if w == nil {
		panic(fmt.Sprintf("cache: ReadHits by core %d on line %#x it does not hold", core, uint64(line)))
	}
	c.tick += n
	w.lru = c.tick
}

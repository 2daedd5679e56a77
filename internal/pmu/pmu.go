// Package pmu models the performance monitoring unit the profiler
// samples with: a set of per-thread event counters, each with a
// configurable sampling period. When a counter accumulates period
// events it overflows, and the machine delivers an interrupt — which,
// exactly as on Intel hardware, aborts any transaction the thread is
// executing (paper §3.1, Challenge I).
package pmu

import (
	"fmt"
	"math"
)

// Event enumerates the hardware events TxSampler samples (paper §6):
// cycles, RTM_RETIRED:ABORTED, RTM_RETIRED:COMMIT, and
// MEM_UOPS_RETIRED:ALL_LOADS / ALL_STORES.
type Event uint8

const (
	// Cycles counts CPU cycles.
	Cycles Event = iota
	// TxAbort counts retired transaction aborts (RTM_RETIRED:ABORTED).
	TxAbort
	// TxCommit counts retired transaction commits (RTM_RETIRED:COMMIT).
	TxCommit
	// Loads counts retired memory loads.
	Loads
	// Stores counts retired memory stores.
	Stores

	// NumEvents is the number of defined events.
	NumEvents = iota
)

func (e Event) String() string {
	switch e {
	case Cycles:
		return "cycles"
	case TxAbort:
		return "rtm-abort"
	case TxCommit:
		return "rtm-commit"
	case Loads:
		return "mem-loads"
	case Stores:
		return "mem-stores"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Periods configures the sampling period per event; a zero period
// disables sampling for that event. The paper's defaults are 1e7 for
// cycles and 1e4 for RTM and memory events; the simulated machine runs
// far fewer cycles than real hardware, so callers scale these down to
// reach the paper's target of 50–200 samples per thread per second.
type Periods [NumEvents]uint64

// DefaultPeriods returns sampling periods scaled to the simulator so a
// typical benchmark collects on the order of 10²–10³ samples per
// thread, matching the paper's target sampling rate regime.
func DefaultPeriods() Periods {
	var p Periods
	p[Cycles] = 16_000
	p[TxAbort] = 16
	p[TxCommit] = 16
	p[Loads] = 2_000
	p[Stores] = 2_000
	return p
}

// Counters is one thread's PMU state. The zero value counts nothing;
// configure with SetPeriods.
type Counters struct {
	periods   Periods
	pending   [NumEvents]uint64 // events since last overflow
	next      [NumEvents]uint64 // jittered threshold for the next overflow
	totals    [NumEvents]uint64
	overflows [NumEvents]uint64 // overflow interrupts generated
	frozen    bool
	jitter    uint64 // xorshift state; 0 = jitter disabled
}

// SetPeriods installs sampling periods and clears pending counts.
func (c *Counters) SetPeriods(p Periods) {
	c.periods = p
	c.pending = [NumEvents]uint64{}
	for e := range c.next {
		c.next[e] = c.threshold(Event(e))
	}
}

// EnableJitter randomizes each overflow threshold by up to ±1/16 of
// the period, as production profilers do to avoid harmonic lock-step
// with loop structure (deterministic: seeded xorshift). A zero seed
// disables jitter.
func (c *Counters) EnableJitter(seed uint64) {
	c.jitter = seed
	for e := range c.next {
		c.next[e] = c.threshold(Event(e))
	}
}

// threshold computes the next overflow point for event e.
func (c *Counters) threshold(e Event) uint64 {
	p := c.periods[e]
	if p == 0 {
		return 0
	}
	span := p / 8
	if c.jitter == 0 || span == 0 {
		return p
	}
	// xorshift64
	x := c.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.jitter = x
	return p - span/2 + x%span
}

// Periods returns the installed periods.
func (c *Counters) Periods() Periods { return c.periods }

// Freeze suspends overflow generation (counting continues), as
// hardware does while a PMI handler runs; Unfreeze re-enables it.
func (c *Counters) Freeze()   { c.frozen = true }
func (c *Counters) Unfreeze() { c.frozen = false }

// Add credits n events of type e and reports whether the counter
// overflowed (reached its — possibly jittered — period). On overflow
// the pending count resets, retaining the remainder so long ops
// cannot hide samples.
func (c *Counters) Add(e Event, n uint64) (overflowed bool) {
	c.totals[e] += n
	if c.periods[e] == 0 || c.frozen {
		return false
	}
	c.pending[e] += n
	if c.pending[e] >= c.next[e] {
		c.pending[e] -= c.next[e]
		if c.pending[e] >= c.periods[e] {
			c.pending[e] %= c.periods[e]
		}
		c.next[e] = c.threshold(e)
		c.overflows[e]++
		return true
	}
	return false
}

// Headroom returns how many more events of type e the counter absorbs
// without overflowing: unless it is 0, Adds totalling at most
// Headroom(e) events all return false, and one event more always
// overflows. It is 0 both when one event would overflow and when even
// an empty Add would (a large Add can leave its remainder at or past a
// jittered threshold), and math.MaxUint64 for an unsampled or frozen
// counter, which never overflows.
func (c *Counters) Headroom(e Event) uint64 {
	if c.periods[e] == 0 || c.frozen {
		return math.MaxUint64
	}
	if c.pending[e] >= c.next[e] {
		return 0
	}
	return c.next[e] - c.pending[e] - 1
}

// Total returns the lifetime count of event e.
func (c *Counters) Total(e Event) uint64 { return c.totals[e] }

// Overflows returns how many overflow interrupts event e generated —
// the profiler self-report's sampling-pressure metric.
func (c *Counters) Overflows(e Event) uint64 { return c.overflows[e] }

// Package machine implements the simulated multicore machine that HTM
// workloads execute on: cores with private L1 caches, a TSX-like
// transaction engine, per-thread PMU counters whose overflows deliver
// interrupts (aborting in-flight transactions), per-core LBR buffers,
// and architectural call stacks that roll back on abort.
//
// Simulated threads are coroutines that one driver goroutine resumes
// one at a time under a deterministic scheduler: exactly one thread
// holds the baton and runs until it reaches a gate point — an operation
// on shared machine state, any operation inside a transaction, a PMU
// sample delivery, or an Exclusive section — whose canonical position
// another live thread precedes; only then does it name its successor
// and suspend to the driver, which resumes that thread. Thread-private
// operations between gate points commute with everything other
// threads do, so the interleaving of every shared effect is the total
// order the per-op schedule (Quantum=1, the reference oracle) produces
// — always advance the live thread with the smallest pending (clock,
// ID) — reproducible for a given seed and workload, independent of the
// quantum.
package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txsampler/internal/cache"
	"txsampler/internal/faults"
	"txsampler/internal/htm"
	"txsampler/internal/mem"
	"txsampler/internal/pmem"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// Cycle costs of non-memory operations; memory operation latencies
// come from the cache hierarchy. The absolute values are arbitrary;
// only their relative magnitudes matter.
const (
	computeCost = 1   // one unit of Compute(n)
	callCost    = 2   // call instruction
	returnCost  = 2   // return instruction
	syscallCost = 400 // kernel round trip
	txBeginCost = 45  // XBEGIN
	txEndCost   = 30  // XEND
	txAbortCost = 150 // hardware rollback penalty
	atomicCost  = 20  // extra cost of a locked RMW over a plain store
	// handlerCost is charged to a thread's clock for each delivered
	// sample, modelling the profiler's signal handler.
	handlerCost = 200
)

// DefaultQuantum is the run-quantum applied when Config.Quantum is
// zero: how many operations a thread executes between scheduler
// bookkeeping rendezvous (status snapshot, watchdog progress,
// cancellation pickup). Handoffs happen only at gate points, so the
// quantum does not affect the schedule.
const DefaultQuantum = 4096

// Config describes a machine.
type Config struct {
	Threads  int          // number of simulated threads; one core each
	Cache    cache.Config // zero value → cache.DefaultConfig()
	LBRDepth int          // 0 → 16 (Haswell/Broadwell, paper §3.1)
	Seed     int64        // workload PRNG seed

	// Periods enables PMU sampling when any entry is non-zero. With
	// the zero value the machine runs "native": no interrupts, no
	// profiling perturbation.
	Periods pmu.Periods
	// StartSkew randomizes each thread's initial clock in [0,
	// StartSkew) cycles, modelling thread-creation skew. Zero starts
	// all threads at cycle 0.
	StartSkew uint64
	// MemPenalty adds a fixed cost to every Load and Store, modelling
	// per-access software instrumentation (the STM-style replay of
	// record-and-replay profilers, §9).
	MemPenalty uint64

	// Faults configures deterministic fault injection (spurious
	// aborts, PMU sample loss, LBR corruption, stalls, storms). The
	// zero plan injects nothing; see the faults package.
	Faults faults.Plan

	// Pmem configures the simulated persistent-memory tier: a persist
	// domain behind the volatile memory, eager undo logging on
	// transactional stores to tracked regions, and flush/fence/commit
	// persistence costs. Disabled (the zero value), the machine has no
	// persist domain and behaves bit-identically to earlier versions;
	// see the pmem package.
	Pmem pmem.Config

	// Watchdog bounds the real time the scheduler waits without any
	// thread completing an operation before declaring the machine
	// deadlocked and failing with a per-thread diagnostic dump
	// instead of hanging forever. Zero selects the 30s default;
	// negative disables the watchdog.
	Watchdog time.Duration
	// MaxCycles bounds simulated time: once the slowest live thread's
	// clock exceeds it, the scheduler declares livelock and fails
	// with a diagnostic dump. Zero means unbounded.
	MaxCycles uint64

	// Quantum is the number of operations between scheduler
	// bookkeeping rendezvous. Zero selects DefaultQuantum; 1 selects
	// the per-op reference schedule, which hands the baton to the live
	// thread with the smallest pending (clock, ID) after every
	// operation. The schedule itself is quantum-invariant; see
	// DESIGN.md §3.1.
	Quantum int

	// Trace, when non-nil, records canonical run slices, transaction
	// regions (with abort causes), and PMU interrupt deliveries,
	// timestamped with virtual cycle clocks — the trace
	// content is deterministic for a seed and invariant to Quantum.
	// Nil disables tracing; instrumented paths then pay one branch.
	Trace *telemetry.Tracer

	// Hybrid selects the hybrid-TM slow-path policy the rtm runtime
	// applies to locks allocated on this machine (see HybridPolicy).
	// The zero value, HybridLockOnly, is the paper's lock-only
	// fallback.
	Hybrid HybridPolicy

	// Elision selects whether elidable locks (rtm.ElidedLock) on this
	// machine speculate through the TM runtime (see ElisionMode). The
	// zero value, ElisionOff, makes them plain locks.
	Elision ElisionMode

	// Context, when non-nil, cancels the run cooperatively:
	// SIGINT/SIGTERM (via signal.NotifyContext) or a per-shard
	// deadline stops the machine at the next scheduler rendezvous — a
	// quantum boundary, so no thread is mid-operation and every
	// collector structure is consistent — and Run returns an error
	// wrapping ErrCanceled and the context's cause. Machine state
	// (Elapsed, GroundTruth, an attached collector) remains readable,
	// which is what lets frontends flush a Partial profile.
	Context context.Context
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultConfig()
	}
	if c.LBRDepth == 0 {
		c.LBRDepth = 16
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	return c
}

// Validate reports the first problem with the configuration, after
// defaulting, or nil. Frontends validate before construction so bad
// flag combinations surface as clean errors; New panics on the same
// conditions, treating them as API misuse.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Threads < 1 || d.Threads > htm.MaxThreads {
		return fmt.Errorf("machine: thread count %d out of range [1,%d]", d.Threads, htm.MaxThreads)
	}
	if err := d.Cache.Validate(); err != nil {
		return err
	}
	if c.LBRDepth < 0 {
		return fmt.Errorf("machine: negative LBR depth %d", c.LBRDepth)
	}
	if c.Quantum < 0 {
		return fmt.Errorf("machine: negative scheduler quantum %d", c.Quantum)
	}
	if !c.Hybrid.Valid() {
		return fmt.Errorf("machine: unknown hybrid policy %d", int(c.Hybrid))
	}
	if !c.Elision.Valid() {
		return fmt.Errorf("machine: unknown elision mode %d", int(c.Elision))
	}
	if err := (htm.Config{Sets: d.Cache.Sets, Ways: d.Cache.Ways}).Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.PmemArmed() && !c.Pmem.Enabled {
		return fmt.Errorf("machine: fault plan arms pmem crash point %q but the pmem tier is disabled",
			c.Faults.PmemCrashPoint)
	}
	return nil
}

// Sampling reports whether any PMU event is enabled.
func (c Config) Sampling() bool {
	for _, p := range c.Periods {
		if p != 0 {
			return true
		}
	}
	return false
}

// SampleHandler receives PMU samples. Implemented by the TxSampler
// collector. Handlers run logically inside the interrupted thread; the
// machine charges handlerCost cycles per delivery.
type SampleHandler interface {
	HandleSample(s *Sample)
}

// Machine is one simulated multicore system.
type Machine struct {
	cfg     Config
	Mem     *mem.Memory
	Caches  *cache.Hierarchy
	HTM     *htm.Engine
	threads []*Thread
	handler SampleHandler
	sched   *scheduler
	pmem    *pmem.Domain // nil unless Config.Pmem.Enabled

	ran bool
}

// scheduler is the shared baton state. Each thread body is a coroutine
// and one driver goroutine resumes the baton holder (see drive), so
// exactly one thread runs at a time and consecutive holders are ordered
// by the coroutine switches between them (the race detector agrees).
// Only the holder touches live, lastGater, sleeping and the threads'
// scheduling state, with no lock: a yielding thread picks its
// successor, names it in running and suspends. running and stopped are
// atomics because the watchdog reads and sets them while a stuck holder
// runs; mu guards only the status snapshots, the cancellation the
// context watcher posts, and the terminal result.
//
// live is the ordered live set: the baton holder first, then every
// other unfinished thread in pending-position (lastPub, ID) order. Only
// the holder's position and those of the sleepers it wakes change while
// it holds the baton, so only they move (see sink and raise), and once
// the holder has sunk to its place or left, the successor and its
// horizon are the first two entries (see pickNext).
type scheduler struct {
	mu       sync.Mutex
	live     []*Thread      // holder first, then by (lastPub, ID)
	status   []threadStatus // written under mu
	running  atomic.Int32   // ID of the thread holding the baton
	stopped  atomic.Bool    // terminal, set under mu: the driver resumes no one
	err      error          // terminal result, set with stopped
	done     chan error     // the driver delivers err once every coroutine stopped
	progress atomic.Uint64  // rendezvous counter for the watchdog

	// cancelErr is set (under mu, by the context watcher) when the
	// run's context is done; the next thread to rendezvous reports it
	// and stops the machine at that quantum boundary.
	cancelErr error

	// lastGater is the thread that passed the most recent gate, or -1
	// before any has. Only the baton holder touches it; it defines the
	// canonical run-slice boundaries (see Thread.gate).
	lastGater int

	// sleeping is the bitmask of threads asleep in a spin-wait
	// fast-forward (see Thread.SpinWhileNonzero). Only the baton
	// holder reads or writes it, like the sleepers' own spin state.
	sleeping uint64
}

// reportLocked records the terminal result (first one wins) and stops
// the machine.
func (s *scheduler) reportLocked(err error) {
	if !s.stopped.Load() {
		s.err = err
		s.stopped.Store(true)
	}
}

// New constructs a machine. The configuration is validated and
// defaulted; see Config. Invalid configurations panic — callers
// turning user input into a Config should call Config.Validate first
// and report the error themselves.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Machine{
		cfg:    cfg,
		Mem:    mem.NewMemory(),
		Caches: cache.New(cfg.Threads, cfg.Cache),
		HTM:    htm.NewEngine(htm.Config{Sets: cfg.Cache.Sets, Ways: cfg.Cache.Ways}),
		sched:  &scheduler{done: make(chan error, 1), lastGater: -1},
	}
	if cfg.Pmem.Enabled {
		m.pmem = pmem.New(cfg.Faults, cfg.Threads)
	}
	for i := 0; i < cfg.Threads; i++ {
		m.threads = append(m.threads, newThread(m, i))
	}
	return m
}

// Config returns the (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetHandler installs the PMU sample handler. Must be called before
// Run.
func (m *Machine) SetHandler(h SampleHandler) { m.handler = h }

// Thread returns thread i, for pre-Run configuration by tests.
func (m *Machine) Thread(i int) *Thread { return m.threads[i] }

// Pmem returns the persistent-memory domain, or nil when the tier is
// disabled.
func (m *Machine) Pmem() *pmem.Domain { return m.pmem }

// PmemTrack registers [base, base+words*WordSize) as durable. A no-op
// when the pmem tier is disabled, so workloads with durable regions
// run unchanged on volatile-only machines.
func (m *Machine) PmemTrack(base mem.Addr, words int) {
	if m.pmem != nil {
		m.pmem.Track(base, words)
	}
}

// Run executes one body per configured thread to completion and
// returns the first workload panic as an error (simulated aborts are
// handled internally and never escape). Run may be called once.
func (m *Machine) Run(bodies ...func(*Thread)) error {
	if m.ran {
		panic("machine: Run called twice")
	}
	m.ran = true
	if len(bodies) != m.cfg.Threads {
		panic(fmt.Sprintf("machine: %d bodies for %d threads", len(bodies), m.cfg.Threads))
	}
	if m.pmem != nil {
		// Capture the post-initialization image of the durable regions:
		// build-time stores happened before the machine ran, so the
		// persist domain starts consistent with volatile memory.
		m.pmem.Sync(m.Mem)
	}
	s := m.sched
	s.live = make([]*Thread, len(m.threads))
	copy(s.live, m.threads)
	sort.Slice(s.live, func(i, j int) bool { return precedes(s.live[i], s.live[j]) })
	s.status = make([]threadStatus, len(m.threads))
	if ctx := m.cfg.Context; ctx != nil && ctx.Err() != nil {
		// A context canceled before Run is visible synchronously, so
		// even workloads shorter than one quantum report ErrCanceled.
		s.cancelErr = context.Cause(ctx)
	}
	for i, t := range m.threads {
		t.start(bodies[i])
	}
	return m.schedule()
}

// RunAll is a convenience that runs the same body on every thread.
func (m *Machine) RunAll(body func(*Thread)) error {
	bodies := make([]func(*Thread), m.cfg.Threads)
	for i := range bodies {
		bodies[i] = body
	}
	return m.Run(bodies...)
}

// DefaultWatchdog is the real-time no-progress bound the scheduler
// applies when Config.Watchdog is zero.
const DefaultWatchdog = 30 * time.Second

// threadStatus is the scheduler's own record of a thread's state at
// its most recent rendezvous. It is written only under the scheduler
// mutex (by the thread itself, at a rendezvous or when it finishes),
// which makes the watchdog's diagnostic dump race-free even while a
// stuck thread is blocked in workload code.
type threadStatus struct {
	ops     uint64 // operations completed
	clock   uint64
	depth   int // call-stack depth
	top     string
	inTx    bool
	txNest  int
	state   uint32
	yielded bool // reached at least one rendezvous
	done    bool
}

func statusOf(t *Thread) threadStatus {
	ip := t.curIP()
	top := ip.Fn
	if ip.Site != "" {
		top += "@" + ip.Site
	}
	return threadStatus{
		clock: t.clock, depth: len(t.stack), top: top, ops: t.opCount,
		inTx: t.tx != nil, txNest: t.txNest, state: t.State, yielded: true,
	}
}

// precedes reports whether a's pending position (lastPub, ID) comes
// before b's in the canonical order.
func precedes(a, b *Thread) bool {
	return a.lastPub < b.lastPub || (a.lastPub == b.lastPub && a.ID < b.ID)
}

// sink moves the baton holder, live[0], to its place in the live set
// once its pending position has grown: past each thread whose position
// precedes its own, stopping at the first that does not. The other
// entries are already in order, so afterwards the whole set is.
func (s *scheduler) sink() {
	live := s.live
	t := live[0]
	i := 1
	for ; i < len(live) && precedes(live[i], t); i++ {
		live[i-1] = live[i]
	}
	live[i-1] = t
}

// raise moves sp, a thread behind the holder whose pending position
// just shrank, forward to its place in the live set — never past the
// holder, which keeps the first entry until it yields.
func (s *scheduler) raise(sp *Thread) {
	live := s.live
	i := slices.Index(live, sp)
	for ; i > 1 && precedes(sp, live[i-1]); i-- {
		live[i] = live[i-1]
	}
	live[i] = sp
}

// pickNext returns the first two entries of the ordered live set: the
// thread the canonical per-op schedule runs next, and the one whose
// pending position becomes its horizon (nil when it runs alone). Both
// are nil when every thread has finished; the error is the MaxCycles
// livelock, once even the first is past the budget. Only the baton
// holder calls it, after putting the set in order: yield sinks the
// holder first, finish drops it.
func (m *Machine) pickNext() (first, second *Thread, err error) {
	live := m.sched.live
	if len(live) == 0 {
		return nil, nil, nil
	}
	if first = live[0]; len(live) > 1 {
		second = live[1]
	}
	if m.cfg.MaxCycles > 0 && first.lastPub > m.cfg.MaxCycles {
		return nil, nil, fmt.Errorf("machine: watchdog: slowest live thread passed MaxCycles=%d without completing (livelock?)\n%s",
			m.cfg.MaxCycles, dumpStatus(m.sched.status, -1))
	}
	return first, second, nil
}

// grant hands the baton to t with horizon h: the driver resumes t once
// the current holder suspends or finishes.
func (m *Machine) grant(t, h *Thread) {
	t.setHorizon(h)
	m.sched.running.Store(int32(t.ID))
}

// wakeSpinners runs before writer's write access to line, at the
// writer's pending position: every spinner asleep on the line first
// applies the skipped iterations whose loads precede that position —
// they hit and read the old value — and resumes pending at its next
// load, which observes the write. That position is no later than the
// one it slept at, so the spinner rises in the live set; the writer,
// holding the baton, takes it as its horizon when it lands right
// behind.
func (m *Machine) wakeSpinners(writer *Thread, line mem.Addr) {
	s := m.sched
	for set := s.sleeping; set != 0; set &= set - 1 {
		sp := m.threads[bits.TrailingZeros64(set)]
		if sp.spin.line != line {
			continue
		}
		s.sleeping &^= 1 << uint(sp.ID)
		sp.skipSpins(sp.spin.before(writer.lastPub, writer.ID, sp.ID))
		s.raise(sp)
		if s.live[1] == sp {
			writer.setHorizon(sp)
		}
	}
}

// setHorizon freezes h's pending position as t's horizon: no other live
// thread's position changes while t holds the baton, except a spinner's
// that t wakes (see wakeSpinners), so t passes every gate whose position
// stays below it. A thread running alone (h nil) gets a horizon no
// position reaches.
func (t *Thread) setHorizon(h *Thread) {
	if h == nil {
		t.hClock, t.hID = math.MaxUint64, math.MaxInt
		return
	}
	t.hClock, t.hID = h.lastPub, h.ID
}

// ErrCanceled marks a run stopped cooperatively via Config.Context.
// The terminal error wraps both ErrCanceled and the context's cause
// (context.Canceled or context.DeadlineExceeded), so callers can
// errors.Is either.
var ErrCanceled = errors.New("machine: run canceled")

// checkCancelLocked reports the pending cancellation, if any, stopping
// the machine. Called with the scheduler mutex held, from a rendezvous
// — i.e. at an operation boundary, when no thread is mid-operation.
func (s *scheduler) checkCancelLocked() {
	if s.cancelErr != nil && !s.stopped.Load() {
		s.reportLocked(fmt.Errorf("%w at a quantum boundary: %w", ErrCanceled, s.cancelErr))
	}
}

func panicErr(id int, v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("machine: thread %d panicked: %w", id, err)
	}
	return fmt.Errorf("machine: thread %d panicked: %v", id, v)
}

// schedule starts the machine: grant the first operation to the live
// thread with the smallest clock, start the driver, and wait for the
// terminal result it delivers. A watchdog goroutine monitors rendezvous
// progress in real time; if the baton holder never reaches another
// rendezvous (a deadlock in workload or handler code), the scheduler
// fails with a per-thread diagnostic dump instead of hanging forever.
// The driver stays on its own goroutine so that a holder blocked in Go
// code cannot block this wait. A cycle budget (Config.MaxCycles)
// catches livelock the same way.
func (m *Machine) schedule() error {
	s := m.sched
	timeout := m.cfg.Watchdog
	if timeout == 0 {
		timeout = DefaultWatchdog
	}
	fired := make(chan struct{})
	stop := make(chan struct{})
	defer close(stop)
	if timeout > 0 {
		go watchdogLoop(timeout, &s.progress, fired, stop)
	}
	if ctx := m.cfg.Context; ctx != nil {
		// The watcher only posts the cancellation; a thread delivers it
		// at its next rendezvous, so the stop lands on a quantum
		// boundary with every thread between operations.
		go func() {
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.cancelErr = context.Cause(ctx)
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}

	// Grant the first operation to the minimum-clock thread; the
	// threads pass the baton among themselves from there. A context
	// canceled before Run stops the machine before any operation.
	s.mu.Lock()
	s.checkCancelLocked()
	if !s.stopped.Load() {
		if first, horizon, err := m.pickNext(); err != nil {
			s.reportLocked(err)
		} else {
			m.grant(first, horizon)
		}
	}
	s.mu.Unlock()
	go m.drive()

	select {
	case err := <-s.done:
		return err
	case <-fired:
		// A terminal report may have raced the watchdog; prefer it.
		select {
		case err := <-s.done:
			return err
		default:
		}
		s.mu.Lock()
		s.stopped.Store(true)
		stuck := m.threads[s.running.Load()]
		snap := make([]threadStatus, len(s.status))
		copy(snap, s.status)
		s.mu.Unlock()
		return watchdogError(timeout, snap, stuck)
	}
}

// drive is the driver goroutine: it resumes the baton holder until the
// machine stops, then stops every coroutine — a thread suspended at a
// handoff unwinds without running another operation (see Thread.park),
// so a failed run leaves no goroutine behind to keep the machine
// reachable — and delivers the terminal result. After a watchdog
// failure it stays inside the stuck thread until that returns control.
func (m *Machine) drive() {
	s := m.sched
	for !s.stopped.Load() {
		m.threads[s.running.Load()].resume()
	}
	for _, t := range m.threads {
		t.stop()
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	s.done <- err
}

// watchdogLoop fires when no rendezvous completes for a whole timeout
// window (so it triggers between timeout and 2x timeout of genuine
// no-progress).
func watchdogLoop(timeout time.Duration, progress *atomic.Uint64, fired, stop chan struct{}) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	last := progress.Load()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
			if cur := progress.Load(); cur != last {
				last = cur
				timer.Reset(timeout)
				continue
			}
			close(fired)
			return
		}
	}
}

func watchdogError(timeout time.Duration, status []threadStatus, stuck *Thread) error {
	if stuck == nil {
		return errors.New("machine: watchdog: no scheduler progress for " + timeout.String() +
			" (deadlock in workload or handler code)\n" + dumpStatus(status, -1))
	}
	return errors.New("machine: watchdog: no scheduler progress for " + timeout.String() +
		"; thread " + fmt.Sprint(stuck.ID) +
		" was mid-operation and did not yield (deadlock in workload or handler code)\n" +
		dumpStatus(status, stuck.ID))
}

// dumpStatus renders the per-thread diagnostic dump from the
// scheduler's rendezvous snapshots. stuck is the granted-but-silent
// thread, or -1.
func dumpStatus(status []threadStatus, stuck int) string {
	var b strings.Builder
	b.WriteString("per-thread state at last rendezvous:")
	for i, st := range status {
		fmt.Fprintf(&b, "\n  thread %2d:", i)
		if !st.yielded {
			b.WriteString(" never reached a rendezvous")
		} else {
			fmt.Fprintf(&b, " clock=%d ops=%d stack-depth=%d top=%s in-tx=%v", st.clock, st.ops, st.depth, st.top, st.inTx)
			if st.txNest > 0 {
				fmt.Fprintf(&b, " tx-nest=%d", st.txNest)
			}
			fmt.Fprintf(&b, " state=%#x", st.state)
		}
		switch {
		case st.done:
			b.WriteString(" [finished]")
		case i == stuck:
			b.WriteString(" [granted, did not yield]")
		default:
			b.WriteString(" [waiting for grant]")
		}
	}
	return b.String()
}

// FaultStats aggregates the fault-injection statistics of every
// thread's injector. All-zero when no fault plan was configured. Call
// after Run.
func (m *Machine) FaultStats() faults.Stats {
	var s faults.Stats
	for _, t := range m.threads {
		if t.inj != nil {
			s.Merge(t.inj.Stats)
		}
	}
	if m.pmem != nil {
		s.Merge(m.pmem.FaultStats())
	}
	return s
}

// Elapsed returns the makespan: the largest thread clock.
func (m *Machine) Elapsed() uint64 {
	var max uint64
	for _, t := range m.threads {
		if t.clock > max {
			max = t.clock
		}
	}
	return max
}

// TotalCycles returns the sum of all thread clocks (the paper's "work"
// W measured exactly, rather than by sampling).
func (m *Machine) TotalCycles() uint64 {
	var sum uint64
	for _, t := range m.threads {
		sum += t.clock
	}
	return sum
}

// GroundTruth aggregates the machine's exact instrumentation, the
// reference TxSampler's profiles are validated against (paper §7.2).
type GroundTruth struct {
	Commits          uint64
	Aborts           map[htm.Cause]uint64 // application aborts by cause
	PerThreadCommits []uint64
	PerThreadAborts  []uint64
}

// GroundTruth returns exact per-machine transaction statistics.
func (m *Machine) GroundTruth() GroundTruth {
	g := GroundTruth{Aborts: make(map[htm.Cause]uint64)}
	for _, t := range m.threads {
		g.Commits += t.commits
		g.PerThreadCommits = append(g.PerThreadCommits, t.commits)
		var aborts uint64
		for c, n := range t.aborts {
			if n > 0 {
				g.Aborts[htm.Cause(c)] += n
				aborts += n
			}
		}
		g.PerThreadAborts = append(g.PerThreadAborts, aborts)
	}
	return g
}

// AbortCauses returns the causes seen, sorted for stable output.
func (g GroundTruth) AbortCauses() []htm.Cause {
	out := make([]htm.Cause, 0, len(g.Aborts))
	for c := range g.Aborts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

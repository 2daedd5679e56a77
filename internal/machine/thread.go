package machine

import (
	"math/rand"
	"sort"
	"sync"

	"txsampler/internal/faults"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// txAbortSentinel is the private panic value used to unwind a thread's
// Go-level execution back to Attempt when its transaction aborts, the
// simulated analogue of the hardware jump to the XBEGIN fallback
// target. It never escapes the machine API: Attempt recovers it.
type txAbortSentinel struct{}

// AbortInfo describes one completed transaction abort, surfaced to the
// RTM runtime library for its retry decision.
type AbortInfo struct {
	Cause        htm.Cause
	CapKind      htm.CapacityKind
	Weight       uint64 // cycles wasted in the aborted attempt
	ConflictLine mem.Addr
	AbortedBy    int  // aborting thread, or -1
	AbortedByTx  bool // conflicting access was itself transactional
}

type frame struct {
	fn   string
	site string
}

// Thread is one simulated hardware thread (pinned to its own core).
// Workload bodies receive a Thread and perform all computation and
// memory access through its operation methods; each operation advances
// the thread's cycle clock and is a scheduling point.
type Thread struct {
	m  *Machine
	ID int

	clock    uint64
	stack    []frame
	lbrBuf   *lbr.Buffer
	counters pmu.Counters
	rng      *rand.Rand
	inj      *faults.Injector // nil unless Config.Faults is enabled

	// Transaction state.
	tx        *htm.Tx
	txNest    int    // flattened nesting depth (TSX nests by flattening)
	txStack   int    // stack depth snapshot at outermost XBEGIN
	txSite    string // top-frame site snapshot at XBEGIN
	txState   uint32 // state word snapshot at XBEGIN
	txBeginIP lbr.IP // abort branch target
	lastAbort AbortInfo

	// State is the RTM runtime library's thread-private state word
	// (paper §3.2). The rtm package maintains it; the profiler reads
	// it from samples. It is software state, not simulated memory.
	State uint32

	// Software-TM interposition (see SoftTx). soft receives
	// non-transactional memory accesses while installed; inSoftHook
	// suppresses nested delivery while a hook runs.
	soft       SoftTx
	inSoftHook bool

	// Exact instrumentation (ground truth for §7.2 validation).
	commits uint64
	aborts  [8]uint64 // indexed by htm.Cause

	// Scheduling state. cond waits on the machine scheduler's mutex;
	// granted is the baton. lastPub is the thread's pending position:
	// the pre-operation clock of whatever it executes next, which is
	// where its next gate point sits in the canonical order. The
	// horizon is the smallest pending (lastPub, ID) among the other
	// live threads, frozen at grant time: every gate whose position is
	// below it passes without a rendezvous.
	cond       *sync.Cond
	granted    bool
	lastPub    uint64
	hClock     uint64
	hID        int
	sinceYield uint64 // operations since the last rendezvous
	opCount    uint64 // operations completed (diagnostics)
	quantum    uint64 // rendezvous at least every quantum operations
	maxCycles  uint64 // cached Config.MaxCycles

	// Telemetry state: the start of the current canonical run slice
	// and exact counts published post-run.
	sliceStart       uint64
	interleavings    uint64 // run slices this thread ended at a gate
	handoffs         uint64 // times this thread passed the baton on
	interrupts       uint64 // PMU interrupts taken
	samplesDelivered uint64 // samples handed to the handler

	// Scratch reused across sample deliveries so the delivery hot path
	// allocates nothing. The Sample handed to the handler (and every
	// slice it carries) is valid only for the duration of HandleSample;
	// handlers that retain samples must Clone them.
	sampleScratch Sample
	lbrScratch    []lbr.Entry
	truthScratch  []lbr.IP
	stackScratch  []lbr.IP

	// evBatch buffers this thread's trace events between flushes so
	// the tracer's ring mutex is taken once per batch, not per event.
	// Nil when tracing is disabled.
	evBatch []telemetry.Event
}

func newThread(m *Machine, id int) *Thread {
	t := &Thread{
		m:         m,
		ID:        id,
		lbrBuf:    lbr.New(m.cfg.LBRDepth),
		rng:       rand.New(rand.NewSource(m.cfg.Seed*1_000_003 + int64(id))),
		stack:     append(make([]frame, 0, 64), frame{fn: "thread_root"}),
		cond:      sync.NewCond(&m.sched.mu),
		quantum:   uint64(m.cfg.Quantum),
		maxCycles: m.cfg.MaxCycles,
	}
	t.counters.SetPeriods(m.cfg.Periods)
	if m.cfg.Trace != nil {
		t.evBatch = make([]telemetry.Event, 0, traceBatchSize)
	}
	t.inj = faults.NewInjector(m.cfg.Faults, uint64(m.cfg.Seed)*64+uint64(id)+1)
	if m.cfg.StartSkew > 0 {
		// Sampling-period jitter accompanies start skew: both break
		// the lock-step artifacts a fully deterministic machine
		// manufactures (real PMU profilers randomize periods too).
		t.counters.EnableJitter(uint64(m.cfg.Seed)*0x9e3779b9 + uint64(id) + 1)
	}
	if m.cfg.StartSkew > 0 {
		// Stagger thread start times as real thread creation does;
		// with a perfectly deterministic scheduler, identical bodies
		// would otherwise run in lockstep and manufacture thundering
		// herds no real machine exhibits.
		t.clock = uint64(t.rng.Int63n(int64(m.cfg.StartSkew)))
	}
	t.lastPub, t.sliceStart = t.clock, t.clock
	return t
}

// main is the goroutine body driving the workload under the scheduler.
func (t *Thread) main(body func(*Thread)) {
	defer func() { t.finish(recover()) }()
	s := t.m.sched
	s.mu.Lock()
	for !t.granted {
		t.cond.Wait()
	}
	t.granted = false
	s.mu.Unlock()
	body(t)
}

// finish runs when the workload body returns or panics: it records the
// final status, removes the thread from the live set, and either
// reports the terminal result (panic, or all threads done) or hands
// the baton to the next runnable thread.
func (t *Thread) finish(panicked any) {
	s := t.m.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	st := statusOf(t)
	st.done = true
	s.status[t.ID] = st
	s.progress.Add(1)
	if t.m.cfg.Trace != nil {
		t.emitRunSlice(t.clock)
		t.flushTrace()
	}
	for i, c := range s.live {
		if c == t {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	if s.stopped {
		return
	}
	if panicked != nil {
		// Fail fast: the dead thread may hold a spin lock other
		// threads wait on forever. Remaining thread goroutines stay
		// parked and are collected with the machine. Wrap error panic
		// values so callers can errors.Is/As typed workload failures.
		s.reportLocked(panicErr(t.ID, panicked))
		return
	}
	next, horizon, err := t.m.pickNextLocked()
	if err != nil {
		s.reportLocked(err)
		return
	}
	if next == nil {
		s.reportLocked(nil) // all threads completed: completion wins over a racing cancel
		return
	}
	s.checkCancelLocked()
	if s.stopped {
		return
	}
	t.m.grantLocked(next, horizon)
}

// rendezvous is the scheduler's slow path at an operation boundary:
// record status, feed the watchdog and pick up cancellation. Only the
// per-op oracle (Quantum=1) and a thread past MaxCycles also yield the
// baton here; otherwise handoffs happen at gate points alone.
func (t *Thread) rendezvous() {
	s := t.m.sched
	s.mu.Lock()
	s.status[t.ID] = statusOf(t)
	s.progress.Add(1)
	t.sinceYield = 0
	s.checkCancelLocked()
	if t.quantum == 1 || (t.maxCycles > 0 && t.clock > t.maxCycles) {
		t.yieldLocked()
	} else if s.stopped {
		t.parkLocked()
	}
	s.mu.Unlock()
}

// yieldLocked passes the baton to the live thread with the smallest
// pending (lastPub, ID), or keeps it when that is t, and returns once t
// holds the baton again — as the canonical minimum. Parks instead when
// the machine stopped, or fails it at MaxCycles.
func (t *Thread) yieldLocked() {
	s := t.m.sched
	if s.stopped {
		t.parkLocked()
	}
	next, horizon, err := t.m.pickNextLocked()
	if err != nil {
		s.reportLocked(err)
		t.parkLocked()
	}
	if next == t {
		t.setHorizon(horizon)
		return
	}
	t.handoffs++
	t.flushTrace() // hand off with an empty batch: ring stays near-ordered
	t.m.grantLocked(next, horizon)
	for !t.granted {
		t.cond.Wait()
	}
	t.granted = false
}

// parkLocked blocks the calling thread goroutine forever (the machine
// has failed; the goroutine is abandoned exactly as the channel-based
// scheduler abandoned threads parked at a rendezvous). Never returns.
func (t *Thread) parkLocked() {
	t.flushTrace() // retire buffered trace events before blocking forever
	for {
		t.cond.Wait()
	}
}

// Clock returns the thread's cycle clock.
func (t *Thread) Clock() uint64 { return t.clock }

// Rand returns the thread's deterministic PRNG.
func (t *Thread) Rand() *rand.Rand { return t.rng }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Counters exposes the thread's PMU counters (read-only use).
func (t *Thread) Counters() *pmu.Counters { return &t.counters }

// InTx reports whether a hardware transaction is active.
func (t *Thread) InTx() bool { return t.tx != nil }

// LastAbort returns the record of the most recent abort; valid inside
// the abort handling path of Attempt.
func (t *Thread) LastAbort() AbortInfo { return t.lastAbort }

// Commits and Aborts expose the exact ground-truth instrumentation.
func (t *Thread) Commits() uint64 { return t.commits }

// Aborts returns the exact abort count for one cause.
func (t *Thread) Aborts(c htm.Cause) uint64 { return t.aborts[c] }

// CallStack returns a copy of the architectural call stack, root
// first — what a call-stack unwinder observes at this instant.
func (t *Thread) CallStack() []lbr.IP { return t.stackIPs() }

func (t *Thread) curIP() lbr.IP {
	f := t.stack[len(t.stack)-1]
	return lbr.IP{Fn: f.fn, Site: f.site}
}

func (t *Thread) stackIPs() []lbr.IP {
	out := make([]lbr.IP, len(t.stack))
	for i, f := range t.stack {
		out[i] = lbr.IP{Fn: f.fn, Site: f.site}
	}
	return out
}

// stackIPsInto is stackIPs reusing dst's backing array.
func (t *Thread) stackIPsInto(dst []lbr.IP) []lbr.IP {
	dst = dst[:0]
	for _, f := range t.stack {
		dst = append(dst, lbr.IP{Fn: f.fn, Site: f.site})
	}
	return dst
}

// opMeta carries PMU metadata for one operation.
type opMeta struct {
	ev      pmu.Event
	n       uint64
	hasEv   bool
	addr    mem.Addr
	isWrite bool
	hasAddr bool
}

// startOp begins one operation: deliver any pending asynchronous abort
// and run the fault injector's per-operation hooks. The operation's
// effect then executes inline in the caller, followed by endOp.
//
// Any operation inside a transaction is a gate point: other threads'
// operations may doom this transaction, so even thread-private work
// must observe shared state at its canonical position.
func (t *Thread) startOp() {
	if t.tx != nil {
		t.gate()
	}
	if t.tx != nil && t.tx.Doomed {
		t.abortNow() // asynchronous abort arrived between operations
	}
	if t.inj != nil {
		t.inj.Tick()
		if n := t.inj.Stall(); n > 0 {
			// Interference stall: simulated time passes but no
			// instructions retire, so the PMU counters do not advance.
			t.clock += n
		}
		if t.tx != nil && t.inj.SpuriousAbort() {
			// Transient microarchitectural abort: the status word
			// reports nothing (no _XABORT_* bit set), as real TSX does
			// for TLB shootdowns, uncore interference, and similar.
			t.m.HTM.Doom(t.tx, htm.Spurious, -1, 0)
			t.abortNow()
		}
	}
}

// startShared begins an operation whose effect touches shared machine
// state (memory, caches, the HTM engine) even outside a transaction: a
// gate point.
func (t *Thread) startShared() {
	if t.tx == nil {
		t.gate() // startOp gates in-transaction operations itself
	}
	t.startOp()
}

// gate holds the thread at its pending position (lastPub, ID) until
// that position is the smallest among the live threads — at once while
// it stays below the horizon, else after handing the baton to the
// thread holding the horizon and being granted it back. Every effect
// on state shared across threads runs behind a gate, so those effects
// execute in canonical (lastPub, ID) order while the thread-private
// operations between them run past the horizon. The abort path never
// publishes, so an operation riding along with an abort still passes
// at the aborted operation's position.
//
// Gate passes also define the canonical run slices: a thread's slice
// ends at its next gate pass if another thread passed a gate since its
// last one. That sequence is the same under every quantum, so the
// slices — and the interleavings count — are too.
func (t *Thread) gate() {
	s := t.m.sched
	if t.lastPub > t.hClock || (t.lastPub == t.hClock && t.ID > t.hID) {
		s.mu.Lock()
		t.yieldLocked()
		s.mu.Unlock()
	}
	if s.lastGater != t.ID {
		if s.lastGater >= 0 {
			t.interleavings++
			t.emitRunSlice(t.lastPub)
			t.sliceStart = t.lastPub
		}
		s.lastGater = t.ID
	}
}

// Exclusive runs fn at the thread's current canonical position,
// mutually exclusive with every other thread's Exclusive sections and
// shared-state operations, in the order the per-op schedule would run
// it. Runtime libraries layered on the machine (internal/rtm,
// instrumentation sinks) must use it for every access to Go-level
// state shared across simulated threads — per-lock statistics, event
// logs — because thread-private operations run past other threads'
// positions; that contract is what makes gate-point handoff sound. fn
// must not invoke thread operations.
func (t *Thread) Exclusive(fn func()) {
	t.gate()
	fn()
}

// endOp completes one operation: unwind if the effect doomed the
// transaction, advance the clock and PMU counters, deliver counter
// overflow interrupts behind a gate, publish the advanced clock as the
// next pending position, and reach the scheduler's slow path when the
// quantum expires (every operation for the Quantum=1 oracle) or the
// clock passes MaxCycles.
func (t *Thread) endOp(meta opMeta, cost uint64) {
	if t.tx != nil && t.tx.Doomed {
		t.abortNow() // the effect doomed us (capacity, sync, explicit)
	}
	t.clock += cost
	var over [2]pmu.Event
	n := 0
	if t.counters.Add(pmu.Cycles, cost) {
		over[n] = pmu.Cycles
		n++
	}
	if meta.hasEv && t.counters.Add(meta.ev, meta.n) {
		over[n] = meta.ev
		n++
	}
	if n > 0 && t.m.handler != nil {
		// Sample delivery mutates shared collector state. Gate at the
		// operation's canonical position — lastPub still holds the
		// pre-operation clock — before invoking the handler.
		t.gate()
		t.deliverInterrupt(over[:n], meta)
	}
	t.opCount++
	t.sinceYield++
	t.lastPub = t.clock
	if t.sinceYield >= t.quantum || (t.maxCycles > 0 && t.clock > t.maxCycles) {
		t.rendezvous()
	}
}

// rollback restores the architectural state to the XBEGIN point after
// the engine doomed t.tx, records the LBR abort branch, charges the
// hardware abort penalty, and updates abort instrumentation. It
// reports whether the TxAbort PMU counter overflowed.
func (t *Thread) rollback() (abortOverflow bool) {
	tx := t.tx
	cause := tx.AbortCause
	weight := t.clock - tx.StartCycle + t.m.cfg.Costs.TxAbort
	t.lbrBuf.Record(lbr.Entry{
		Kind: lbr.KindAbort, From: t.curIP(), To: t.txBeginIP, Abort: true, InTSX: true,
	})
	t.stack = t.stack[:t.txStack]
	t.stack[len(t.stack)-1].site = t.txSite
	t.State = t.txState
	t.txNest = 0
	t.clock += t.m.cfg.Costs.TxAbort
	t.counters.Add(pmu.Cycles, t.m.cfg.Costs.TxAbort)
	t.aborts[cause]++
	t.TraceEvent(telemetry.Event{
		Kind: telemetry.KindTxAbort, TS: tx.StartCycle, Dur: t.clock - tx.StartCycle,
		TID: int32(t.ID), Arg: uint64(cause), Name: abortEventNames[cause],
	})
	abortOverflow = t.counters.Add(pmu.TxAbort, 1)
	t.lastAbort = AbortInfo{
		Cause:        cause,
		CapKind:      tx.CapKind,
		Weight:       weight,
		ConflictLine: tx.ConflictLine,
		AbortedBy:    tx.AbortedBy,
		AbortedByTx:  tx.AbortedByTx,
	}
	t.tx = nil
	return abortOverflow
}

// abortNow completes an abort whose cause is already recorded in the
// doomed transaction: roll back, deliver an RTM_RETIRED:ABORTED sample
// if that counter overflowed, and unwind to Attempt.
func (t *Thread) abortNow() {
	t.truthScratch = t.stackIPsInto(t.truthScratch)
	truth := t.truthScratch
	from := t.curIP()
	overflow := t.rollback()
	if overflow && t.m.handler != nil {
		t.interrupts++
		events := [1]pmu.Event{pmu.TxAbort}
		t.deliverSamples(events[:], from, truth, true, opMeta{})
	}
	// Deliberately no publish here: the unwind skips endOp, so the
	// first operation after the abort still passes its gate at the
	// aborted operation's canonical position, before the baton can
	// move — as in the per-op schedule, where the unwind skips the
	// rendezvous. The rider's own endOp publish moves the position on.
	panic(txAbortSentinel{})
}

// deliverInterrupt handles PMU counter overflow at the end of an
// operation. If a transaction is running, the interrupt aborts it
// first (the handler then observes the rolled-back state and an LBR
// whose top entry has the abort bit set); otherwise the LBR records a
// plain interrupt branch.
func (t *Thread) deliverInterrupt(events []pmu.Event, meta opMeta) {
	t.interrupts++
	t.truthScratch = t.stackIPsInto(t.truthScratch)
	truth := t.truthScratch
	ip := t.curIP()
	wasInTx := t.tx != nil
	var evBuf [3]pmu.Event // at most two overflow events plus TxAbort
	if wasInTx {
		t.m.HTM.Doom(t.tx, htm.Interrupt, -1, 0)
		// The abort retires before the PMI handler freezes the
		// counters; if it overflows the TxAbort counter, a second
		// interrupt is pending and delivers right after this one.
		if t.rollback() {
			n := copy(evBuf[:], events)
			evBuf[n] = pmu.TxAbort
			events = evBuf[:n+1]
		}
	} else {
		t.lbrBuf.Record(lbr.Entry{Kind: lbr.KindInterrupt, From: ip, To: ip})
	}
	t.deliverSamples(events, ip, truth, wasInTx, meta)
	if wasInTx {
		// No publish: the post-abort operation rides along at this
		// operation's position; see abortNow.
		panic(txAbortSentinel{})
	}
}

// deliverSamples builds and dispatches one Sample per overflowed
// event, freezing the LBR and counters for the duration and charging
// the handler cost, exactly once per delivered sample.
func (t *Thread) deliverSamples(events []pmu.Event, ip lbr.IP, truth []lbr.IP, wasInTx bool, meta opMeta) {
	t.lbrBuf.Freeze()
	t.counters.Freeze()
	t.lbrScratch = t.lbrBuf.SnapshotInto(t.lbrScratch)
	snapshot := t.lbrScratch
	if t.inj != nil {
		snapshot = t.inj.CorruptLBR(snapshot)
	}
	// The unwound stack is identical for every sample of one delivery;
	// outside a transaction it is also identical to the ground-truth
	// stack captured before delivery, so the backing array is shared.
	stack := truth
	if wasInTx {
		t.stackScratch = t.stackIPsInto(t.stackScratch)
		stack = t.stackScratch // rolled back: differs from truth
	}
	for _, ev := range events {
		if t.inj != nil && t.inj.DropSample(t.clock) {
			// The PMI was lost or coalesced away: the machine-level
			// perturbation already happened (an in-flight transaction
			// was aborted by the interrupt), but the profiler never
			// sees the sample and pays no handler cost.
			continue
		}
		now := t.clock
		if t.inj != nil {
			now = t.inj.SkewTime(now)
		}
		// One Sample struct per thread, reused across deliveries; the
		// handler contract (see Sample) lets retaining handlers Clone.
		s := &t.sampleScratch
		*s = Sample{
			Event:      ev,
			TID:        t.ID,
			Time:       now,
			IP:         ip,
			LBR:        snapshot,
			State:      t.State,
			Stack:      stack,
			TruthStack: truth,
			TruthInTx:  wasInTx,
		}
		if meta.hasAddr && (ev == pmu.Loads || ev == pmu.Stores) {
			s.Addr, s.IsWrite, s.HasAddr = meta.addr, meta.isWrite, true
		}
		if ev == pmu.TxAbort {
			s.Abort = &t.lastAbort
		}
		t.samplesDelivered++
		t.TraceEvent(telemetry.Event{
			Kind: telemetry.KindInterrupt, TS: t.clock, TID: int32(t.ID),
			Arg: uint64(ev), Name: pmiEventNames[ev],
		})
		t.m.handler.HandleSample(s)
		t.clock += t.m.cfg.HandlerCost
	}
	t.counters.Unfreeze()
	t.lbrBuf.Unfreeze()
}

// --- Operations available to workload bodies ---

// Compute burns n cycles of local computation.
func (t *Thread) Compute(n int) {
	if n <= 0 {
		return
	}
	t.startOp()
	t.endOp(opMeta{}, uint64(n)*t.m.cfg.Costs.Compute)
}

// Load reads the word at a, transactionally when a transaction is
// active.
func (t *Thread) Load(a mem.Addr) mem.Word {
	t.startShared()
	var v mem.Word
	var cost uint64
	if t.tx != nil {
		buf, fromBuf := t.m.HTM.Read(t.tx, a)
		if !t.tx.Doomed {
			r := t.m.Caches.Access(t.ID, a, false)
			if fromBuf {
				v = buf
			} else {
				v = t.m.Mem.Load(a)
			}
			cost = uint64(r.Latency) + t.m.cfg.MemPenalty
		}
	} else {
		t.m.HTM.NonTxAccess(t.ID, a, false)
		r := t.m.Caches.Access(t.ID, a, false)
		v = t.m.Mem.Load(a)
		cost = uint64(r.Latency) + t.m.cfg.MemPenalty
	}
	t.endOp(opMeta{ev: pmu.Loads, n: 1, hasEv: true, addr: a, hasAddr: true}, cost)
	t.softLoad(a, v)
	return v
}

// Store writes v to the word at a, transactionally when a transaction
// is active (the store is buffered until commit).
func (t *Thread) Store(a mem.Addr, v mem.Word) {
	t.softStore(a)
	t.startShared()
	var cost uint64
	if t.tx != nil {
		t.m.HTM.Write(t.tx, a, v)
		if !t.tx.Doomed {
			r := t.m.Caches.Access(t.ID, a, true)
			cost = uint64(r.Latency) + t.m.cfg.MemPenalty
		}
	} else {
		t.m.HTM.NonTxAccess(t.ID, a, true)
		r := t.m.Caches.Access(t.ID, a, true)
		t.m.Mem.Store(a, v)
		cost = uint64(r.Latency) + t.m.cfg.MemPenalty
		if t.m.pmem != nil {
			cost += t.m.pmem.OnStore(t.ID, a, v)
		}
	}
	t.endOp(opMeta{ev: pmu.Stores, n: 1, hasEv: true, addr: a, isWrite: true, hasAddr: true}, cost)
}

// Add loads, adds d, and stores the word at a (two operations, as the
// compiled code would issue).
func (t *Thread) Add(a mem.Addr, d int64) mem.Word {
	v := t.Load(a) + mem.Word(d)
	t.Store(a, v)
	return v
}

// AtomicCAS performs a compare-and-swap on the word at a as a single
// locked operation. Inside a transaction it behaves like a normal
// read-modify-write on the write set.
func (t *Thread) AtomicCAS(a mem.Addr, old, new mem.Word) bool {
	t.softStore(a)
	t.startShared()
	var ok bool
	var cost uint64
	if t.tx != nil {
		cur, fromBuf := t.m.HTM.Read(t.tx, a)
		if !t.tx.Doomed {
			if !fromBuf {
				cur = t.m.Mem.Load(a)
			}
			if cur == old {
				t.m.HTM.Write(t.tx, a, new)
				ok = !t.tx.Doomed
			}
			r := t.m.Caches.Access(t.ID, a, true)
			cost = uint64(r.Latency) + t.m.cfg.Costs.Atomic
		}
	} else {
		t.m.HTM.NonTxAccess(t.ID, a, true)
		r := t.m.Caches.Access(t.ID, a, true)
		if t.m.Mem.Load(a) == old {
			t.m.Mem.Store(a, new)
			ok = true
			if t.m.pmem != nil {
				cost += t.m.pmem.OnStore(t.ID, a, new)
			}
		}
		cost += uint64(r.Latency) + t.m.cfg.Costs.Atomic
	}
	t.endOp(opMeta{ev: pmu.Stores, n: 1, hasEv: true, addr: a, isWrite: true, hasAddr: true}, cost)
	return ok
}

// AtomicAdd atomically adds d to the word at a and returns the new
// value.
func (t *Thread) AtomicAdd(a mem.Addr, d int64) mem.Word {
	t.softStore(a)
	t.startShared()
	var v mem.Word
	var cost uint64
	if t.tx != nil {
		cur, fromBuf := t.m.HTM.Read(t.tx, a)
		if !t.tx.Doomed {
			if !fromBuf {
				cur = t.m.Mem.Load(a)
			}
			v = cur + mem.Word(d)
			t.m.HTM.Write(t.tx, a, v)
			r := t.m.Caches.Access(t.ID, a, true)
			cost = uint64(r.Latency) + t.m.cfg.Costs.Atomic
		}
	} else {
		t.m.HTM.NonTxAccess(t.ID, a, true)
		r := t.m.Caches.Access(t.ID, a, true)
		v = t.m.Mem.Load(a) + mem.Word(d)
		t.m.Mem.Store(a, v)
		cost = uint64(r.Latency) + t.m.cfg.Costs.Atomic
		if t.m.pmem != nil {
			cost += t.m.pmem.OnStore(t.ID, a, v)
		}
	}
	t.endOp(opMeta{ev: pmu.Stores, n: 1, hasEv: true, addr: a, isWrite: true, hasAddr: true}, cost)
	return v
}

// Syscall executes a system call — an HTM-unfriendly instruction that
// synchronously aborts a running transaction (paper §1).
func (t *Thread) Syscall(kind string) {
	t.startOp()
	var cost uint64
	if t.tx != nil {
		t.m.HTM.Doom(t.tx, htm.Sync, -1, 0)
	} else {
		cost = t.m.cfg.Costs.Syscall
	}
	t.endOp(opMeta{}, cost)
}

// PageFault touches a cold page: an HTM-unfriendly event that
// synchronously aborts a running transaction, like Syscall but with
// the cost of a minor fault outside transactions (paper §1 lists page
// faults among the synchronous abort causes; §5 suggests prefetching
// as the fix).
func (t *Thread) PageFault() {
	t.startOp()
	var cost uint64
	if t.tx != nil {
		t.m.HTM.Doom(t.tx, htm.Sync, -1, 0)
	} else {
		cost = t.m.cfg.Costs.Syscall * 3 // fault handling round trip
	}
	t.endOp(opMeta{}, cost)
}

// Call pushes a stack frame for fn and records the branch in the LBR.
func (t *Thread) Call(fn string) {
	t.startOp()
	t.lbrBuf.Record(lbr.Entry{
		Kind: lbr.KindCall, From: t.curIP(), To: lbr.IP{Fn: fn}, InTSX: t.tx != nil,
	})
	t.stack = append(t.stack, frame{fn: fn})
	t.endOp(opMeta{}, t.m.cfg.Costs.Call)
}

// Return pops the current frame and records the branch in the LBR.
func (t *Thread) Return() {
	t.startOp()
	if len(t.stack) <= 1 {
		panic("machine: Return with empty call stack")
	}
	from := t.curIP()
	t.stack = t.stack[:len(t.stack)-1]
	t.lbrBuf.Record(lbr.Entry{
		Kind: lbr.KindReturn, From: from, To: t.curIP(), InTSX: t.tx != nil,
	})
	t.endOp(opMeta{}, t.m.cfg.Costs.Return)
}

// Func runs f within a stack frame named fn. The matching Return is
// intentionally skipped when f unwinds on a transaction abort: the
// rollback restores the call stack, as hardware does.
func (t *Thread) Func(fn string, f func()) {
	t.Call(fn)
	f()
	t.Return()
}

// At annotates the current frame with a source-site label used for
// sample attribution. It is free: no cycles, no scheduling point.
func (t *Thread) At(site string) { t.stack[len(t.stack)-1].site = site }

// --- Persistent-memory operations ---

// PmemSectionBegin opens the thread's durable section; the rtm runtime
// calls it at critical-section entry. Free (no cycles, no scheduling
// point) and a no-op when the pmem tier is disabled.
func (t *Thread) PmemSectionBegin() {
	if t.m.pmem != nil {
		t.m.pmem.Begin(t.ID)
	}
}

// PmemPending reports whether the current durable section stored to
// tracked lines and so must run the persist epilogue.
func (t *Thread) PmemPending() bool {
	return t.m.pmem != nil && t.m.pmem.Pending(t.ID)
}

// pmemOp is one cost-bearing persistence operation (a flush, fence, or
// commit-record write). It runs outside any transaction, so the only
// observable effects are cycles — the persistence stall the profiler
// samples — and PMU interrupts.
func (t *Thread) pmemOp(cost uint64) {
	t.startOp()
	t.endOp(opMeta{}, cost)
}

// pmemCrash injects a whole-machine crash and its recovery at the
// thread's canonical position: the domain tears the undo log for the
// crash class, replays it against the persist image, and reloads the
// volatile copies of the transaction's lines (the reboot).
func (t *Thread) pmemCrash(class string) {
	t.Exclusive(func() {
		t.m.pmem.Crash(t.ID, class, t.m.Mem)
	})
}

// PmemPersist runs the durable-commit epilogue for the current
// section: flush every logged line (address order), fence, then write
// and persist the commit record. The rtm runtime calls it, inside a
// pmem_persist frame with the InFlush state bit set, after the
// critical section's memory effects committed. It returns whether an
// injected crash fired and whether the transaction is durably
// committed — (true, false) means the caller must re-execute the
// section, as the post-reboot application would.
func (t *Thread) PmemPersist() (crashed, committed bool) {
	d := t.m.pmem
	var class string
	t.Exclusive(func() { class = d.Arm(t.ID) })
	if class != "" && class != faults.PmemCrashAfterCommit {
		// The crash lands before the commit record is durable: either
		// before any data flush (log complete) or during logging (log
		// torn). Recovery rolls the transaction back.
		t.pmemCrash(class)
		return true, false
	}
	costs := d.Costs()
	for range d.DirtyLines(t.ID) {
		t.pmemOp(costs.FlushCost) // CLWB one durable line
	}
	t.pmemOp(costs.FenceCost) // drain the write-pending queue
	t.startOp()
	t.m.pmem.Commit(t.ID)
	t.endOp(opMeta{}, costs.CommitCost)
	if class == faults.PmemCrashAfterCommit {
		t.pmemCrash(class)
		return true, true
	}
	t.Exclusive(func() { d.Complete(t.ID) })
	return false, true
}

// --- Transactions ---

// MaxTxNest is the architectural nesting limit; exceeding it aborts
// the (flattened) transaction, as TSX's MAX_RTM_NEST_COUNT does.
const MaxTxNest = 7

// TxBegin starts a hardware transaction (XBEGIN). Nested begins
// flatten into the outermost transaction, as on TSX; exceeding
// MaxTxNest aborts. Most callers want Attempt or the rtm package
// instead.
func (t *Thread) TxBegin() {
	t.startShared()
	var cost uint64
	if t.tx != nil {
		t.txNest++
		if t.txNest >= MaxTxNest {
			t.m.HTM.Doom(t.tx, htm.Explicit, -1, 0)
		}
		cost = t.m.cfg.Costs.TxBegin / 4 // nested XBEGIN is cheap
	} else {
		t.txNest = 0
		t.tx = t.m.HTM.Begin(t.ID, t.clock)
		t.txStack = len(t.stack)
		t.txSite = t.stack[len(t.stack)-1].site
		t.txState = t.State
		t.txBeginIP = t.curIP()
		cost = t.m.cfg.Costs.TxBegin
	}
	t.endOp(opMeta{}, cost)
}

// TxCommit commits the running transaction (XEND), applying its
// buffered stores to memory, or unwinds if it was doomed at the commit
// point. A nested commit only decrements the flattened nesting depth.
func (t *Thread) TxCommit() {
	// startOp first: the gate must be passed before reading
	// t.tx.Doomed, which another thread's conflicting access may set
	// from its own gated operation.
	t.startOp()
	if t.tx != nil && !t.tx.Doomed && t.txNest > 0 {
		t.txNest--
		t.endOp(opMeta{}, t.m.cfg.Costs.TxEnd/4)
		return
	}
	if t.tx == nil {
		panic("machine: TxCommit outside a transaction")
	}
	var cost uint64
	if stores, ok := t.m.HTM.Commit(t.tx); ok {
		if d := t.m.pmem; d != nil {
			// The write-through hook appends undo records, so the buffered
			// stores must apply in a deterministic (address) order for the
			// log bytes to be reproducible. The volatile-only machine keeps
			// the original unordered apply: map order is invisible there.
			addrs := make([]mem.Addr, 0, len(stores))
			for a := range stores {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			for _, a := range addrs {
				t.m.Mem.Store(a, stores[a])
				cost += d.OnStore(t.ID, a, stores[a])
			}
		} else {
			for a, v := range stores {
				t.m.Mem.Store(a, v)
			}
		}
		t.commits++
		t.TraceEvent(telemetry.Event{
			Kind: telemetry.KindTx, TS: t.tx.StartCycle,
			Dur: t.clock - t.tx.StartCycle, TID: int32(t.ID),
		})
		t.tx = nil
		cost += t.m.cfg.Costs.TxEnd
	}
	// Doomed: cost stays 0 and the endOp doom check unwinds.
	t.endOp(opMeta{ev: pmu.TxCommit, n: 1, hasEv: true}, cost)
}

// TxAbort explicitly aborts the running transaction (XABORT).
func (t *Thread) TxAbort() {
	t.startOp()
	if t.tx == nil {
		panic("machine: TxAbort outside a transaction")
	}
	t.m.HTM.Doom(t.tx, htm.Explicit, -1, 0)
	t.endOp(opMeta{}, 0)
}

// Attempt executes body as one hardware transaction attempt. It
// returns nil if the transaction committed, or the abort record. It is
// the simulated equivalent of the XBEGIN status-check idiom:
//
//	if (_xbegin() == _XBEGIN_STARTED) { body; _xend(); }
//	else { /* inspect abort status */ }
//
// Nested Attempts flatten into the outermost transaction: an abort
// anywhere unwinds the whole flattened transaction to the outermost
// Attempt, exactly as TSX rolls back to the outermost XBEGIN.
func (t *Thread) Attempt(body func()) (abort *AbortInfo) {
	outermost := t.tx == nil
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(txAbortSentinel); !ok {
				panic(r)
			}
			if !outermost {
				panic(r) // keep unwinding to the outermost XBEGIN
			}
			info := t.lastAbort
			abort = &info
		}
	}()
	t.TxBegin()
	body()
	t.TxCommit()
	return nil
}

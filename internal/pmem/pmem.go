// Package pmem simulates a persistent-memory tier behind the machine.
//
// The model splits memory into a volatile cache domain (the machine's
// ordinary mem.Memory) and a persist domain (an image of the tracked
// durable regions). Workloads register durable regions with the
// machine; transactional stores to tracked cache lines eagerly append
// per-line undo-log records (pre-image captured at the transaction's
// first store to the line, as in go-redis-pmem's transaction package),
// and the durable-commit epilogue issues explicit flush, fence, and
// commit-record operations at fixed cycle costs — the persistence
// stalls the profiler learns to attribute.
//
// Eviction is modeled adversarially: a store to a tracked line reaches
// the persist domain immediately (as if the line were evicted right
// after the store), which is the worst case an undo-logging protocol
// must survive — a crash then leaves uncommitted data in the persist
// domain, and recovery must really roll it back from the log. The one
// ordering real undo logging enforces with its log-entry fence is
// preserved: a line's data can be in the persist domain only if its
// log entry is durable, so when a crash tears log entries off, the
// torn entries' lines revert to their pre-images (the eviction cannot
// have happened yet).
//
// Crash points are injected through faults.Plan (PmemCrashPoint plus a
// commit-count trigger); at a triggering durable commit the domain
// tears the log per the crash class, runs Recover against the persist
// image, reloads the volatile copies of the transaction's lines from
// the recovered image (the reboot), and the runtime re-executes the
// section — so a run with injected crashes must converge to the same
// final memory as a crash-free run.
package pmem

import (
	"sort"

	"txsampler/internal/faults"
	"txsampler/internal/mem"
)

// Config enables the persistent-memory tier. The zero value is
// disabled.
type Config struct {
	// Enabled turns the persistent tier on. Disabled, the machine has
	// no persist domain and every pmem hook is a no-op.
	Enabled bool
}

// Per-operation cycle costs, loosely calibrated to published Optane DC
// latencies relative to the machine's cache model: a flush is a
// writeback to the persist buffer, a fence drains it (the expensive
// part), a log append is an entry write plus its ordering flush+fence,
// and the commit record is one small persisted write.
const (
	FlushCost  = 120 // one cache-line writeback (CLWB)
	FenceCost  = 250 // SFENCE + write-pending-queue drain before the commit record
	LogCost    = 180 // one eager undo-log append
	CommitCost = 150 // writing and persisting the commit record
)

// CrashStats counts the crash events the domain injected and the
// recovery work they caused.
type CrashStats struct {
	Crashes    uint64 // injected whole-machine crashes
	RolledBack uint64 // undo records replayed by recovery
	TornTails  uint64 // recoveries that detected a torn log tail
	Commits    uint64 // durable commits completed (bookkeeping)
}

// section is one thread's in-progress durable transaction: the lines
// logged so far (first-touch order), their pre-image records, and the
// accumulated undo log bytes.
type section struct {
	active bool
	seq    uint64
	txid   uint64
	logged map[mem.Addr]bool
	frames []undoFrame
	log    []byte
}

// Domain is the persist-domain simulation. All methods mutate shared
// machine state and must be called at the owning thread's canonical
// scheduling position (under the scheduler gate), exactly like the
// memory and HTM engines.
type Domain struct {
	img *mem.Memory // the persist-domain image of tracked regions

	ranges  []trackRange
	tracked map[mem.Addr]bool // cache line -> durable
	synced  bool

	sections []section

	crashPoint string
	crashTx    uint64
	crashEvery uint64
	commits    uint64 // durable-commit attempts, in canonical order

	stats CrashStats
}

type trackRange struct {
	base  mem.Addr
	words int
}

// New builds the domain of an enabled tier. The crash trigger comes
// from the machine-perturbing fault plan; threads sizes the per-thread
// section table.
func New(plan faults.Plan, threads int) *Domain {
	plan = plan.WithDefaults()
	return &Domain{
		img:        mem.NewMemory(),
		tracked:    make(map[mem.Addr]bool),
		sections:   make([]section, threads),
		crashPoint: plan.PmemCrashPoint,
		crashTx:    plan.PmemCrashTx,
		crashEvery: plan.PmemCrashEvery,
	}
}

// Track registers [base, base+words*WordSize) as durable. Every cache
// line the range touches becomes tracked. Workloads call it at build
// time, before the machine runs.
func (d *Domain) Track(base mem.Addr, words int) {
	if words <= 0 {
		return
	}
	d.ranges = append(d.ranges, trackRange{base: base, words: words})
	last := base.Offset(words - 1).Line()
	for line := base.Line(); line <= last; line += mem.LineSize {
		d.tracked[line] = true
	}
}

// Sync copies the tracked regions' current volatile contents into the
// persist image — the machine calls it once at run start, after the
// workload's build-time initialization stores.
func (d *Domain) Sync(vol *mem.Memory) {
	if d.synced {
		return
	}
	d.synced = true
	for _, r := range d.ranges {
		for i := 0; i < r.words; i++ {
			a := r.base.Offset(i)
			if v := vol.Load(a); v != 0 {
				d.img.Store(a, v)
			}
		}
	}
}

// Begin opens thread tid's durable section. The runtime calls it at
// every critical-section entry; a section that never stores to a
// tracked line stays empty and commits for free.
func (d *Domain) Begin(tid int) {
	s := &d.sections[tid]
	s.active = true
	s.seq++
	s.txid = uint64(tid+1)<<32 | s.seq
	s.frames = s.frames[:0]
	s.log = s.log[:0]
	if s.logged == nil {
		s.logged = make(map[mem.Addr]bool)
	} else {
		clear(s.logged)
	}
}

// Pending reports whether tid's section touched durable lines and so
// needs the persist epilogue.
func (d *Domain) Pending(tid int) bool {
	s := &d.sections[tid]
	return s.active && len(s.frames) > 0
}

// OnStore is the write-through hook for a store of v at a. For a
// tracked line inside an active section, the first touch appends an
// undo record (pre-image read from the persist image) and returns the
// log-append cycle cost; every tracked store then reaches the persist
// image immediately (adversarial eviction). Untracked stores cost
// nothing and change nothing.
func (d *Domain) OnStore(tid int, a mem.Addr, v mem.Word) (logCost uint64) {
	line := a.Line()
	if !d.tracked[line] {
		return 0
	}
	s := &d.sections[tid]
	if s.active && !s.logged[line] {
		var f undoFrame
		f.line = line
		for i := range f.vals {
			f.vals[i] = d.img.Load(line.Offset(i))
		}
		s.logged[line] = true
		s.frames = append(s.frames, f)
		s.log = appendUndo(s.log, s.txid, f)
		logCost = LogCost
	}
	d.img.Store(a, v)
	return logCost
}

// DirtyLines returns tid's logged lines in address order — the flush
// schedule of the persist epilogue.
func (d *Domain) DirtyLines(tid int) []mem.Addr {
	s := &d.sections[tid]
	lines := make([]mem.Addr, 0, len(s.frames))
	for _, f := range s.frames {
		lines = append(lines, f.line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// Arm counts one durable-commit attempt and returns the crash class to
// inject at it ("" for none). Calls happen in the scheduler's canonical
// order, so the trigger is deterministic.
func (d *Domain) Arm(tid int) string {
	d.commits++
	if d.crashPoint == "" {
		return ""
	}
	if d.crashTx != 0 && d.commits == d.crashTx {
		return d.crashPoint
	}
	if d.crashEvery != 0 && d.commits%d.crashEvery == 0 {
		return d.crashPoint
	}
	return ""
}

// Commit appends tid's commit record to its undo log.
func (d *Domain) Commit(tid int) {
	s := &d.sections[tid]
	s.log = appendCommit(s.log, s.txid)
}

// Complete closes tid's section after a durable commit: the log is
// truncated (its transaction is committed; nothing to replay).
func (d *Domain) Complete(tid int) {
	d.sections[tid].active = false
	d.stats.Commits++
}

// Crash injects a whole-machine crash at the given point of tid's
// persist epilogue, then recovers: tear the log per the crash class,
// restore the pre-images of lines whose log entries were torn off
// (their data cannot have been evicted before the entry was durable),
// replay the torn log against the persist image, and — unless the
// commit record made it — reload the volatile copies of the
// transaction's lines from the recovered image, as the post-reboot
// process would. Returns the recovery summary.
func (d *Domain) Crash(tid int, class string, vol *mem.Memory) Recovery {
	s := &d.sections[tid]
	torn := s.log
	restoreFrom := len(s.frames) // frames whose log entries the crash tore off
	switch class {
	case faults.PmemCrashMidLog:
		k := len(s.frames) / 2
		torn = s.log[:k*undoFrameSize]
		restoreFrom = k
	case faults.PmemCrashTornTail:
		if len(s.log) >= undoFrameSize {
			torn = s.log[:len(s.log)-undoFrameSize/2]
			restoreFrom = len(s.frames) - 1
		} else {
			torn = s.log[:len(s.log)/2]
			restoreFrom = 0
		}
	}
	for _, f := range s.frames[restoreFrom:] {
		for i, w := range f.vals {
			d.img.Store(f.line.Offset(i), w)
		}
	}
	rec := Recover(torn, d.img)
	d.stats.Crashes++
	d.stats.RolledBack += uint64(rec.RolledBack)
	if rec.Torn {
		d.stats.TornTails++
	}
	if class != faults.PmemCrashAfterCommit {
		for _, f := range s.frames {
			for i := range f.vals {
				a := f.line.Offset(i)
				vol.Store(a, d.img.Load(a))
			}
		}
	}
	s.active = false
	return rec
}

// Log returns the at-rest contents of the undo-log region: every
// thread's most recent section log, concatenated in thread order. On a
// cleanly stopped machine a recovery pass over it must be a no-op —
// every surviving record belongs to a committed transaction.
func (d *Domain) Log() []byte {
	var out []byte
	for i := range d.sections {
		out = append(out, d.sections[i].log...)
	}
	return out
}

// Fingerprint hashes the persist-domain image, exactly as
// mem.Fingerprint hashes the volatile image.
func (d *Domain) Fingerprint() uint64 { return d.img.Fingerprint() }

// Image exposes the persist-domain image (tests and recovery checks).
func (d *Domain) Image() *mem.Memory { return d.img }

// Stats returns the domain's crash-injection counters.
func (d *Domain) Stats() CrashStats { return d.stats }

// FaultStats maps the crash counters into the fault-injection report.
func (d *Domain) FaultStats() faults.Stats {
	return faults.Stats{
		PmemCrashes:    d.stats.Crashes,
		PmemRolledBack: d.stats.RolledBack,
		PmemTornTails:  d.stats.TornTails,
	}
}

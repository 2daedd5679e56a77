// Package faults is the deterministic fault-injection subsystem of the
// simulated machine. Real TSX deployments are noisy in ways the clean
// simulation is not: transactions suffer spurious transient aborts that
// set no status bits, PMU interrupts are dropped or coalesced under
// handler backpressure, LBR contents arrive truncated or stale, and
// threads are preempted or observe clock skew. A Plan enables any
// subset of these regimes; an Injector, seeded per thread and advanced
// only at the machine's deterministic scheduling points, produces a
// fault sequence that is a pure function of (seed, plan, workload) — so
// chaos runs are exactly as reproducible as clean ones.
//
// The package has no dependency on the machine; the machine consults an
// Injector at its operation and sample-delivery points.
package faults

import (
	"fmt"
	"slices"
	"strings"

	"txsampler/internal/lbr"
)

// Plan configures the fault regimes. The zero value injects nothing.
// All rates are per-decision-point probabilities in [0,1]. Each
// field's `fault` tag spells its key in the form ParsePlan reads and
// String writes (see spell.go).
type Plan struct {
	// SpuriousAbortRate injects transient aborts into in-flight
	// transactions, checked once per operation executed inside a
	// transaction. They model real TSX's spurious aborts whose EAX
	// status is completely clear (not even _XABORT_RETRY), yet which
	// succeed when simply retried.
	SpuriousAbortRate float64 `fault:"spurious,rate"`

	// SampleDropRate drops delivered PMU samples (the overflow and any
	// transaction abort it caused still happen; only the sample data is
	// lost), modelling dropped PMI records under buffer pressure.
	SampleDropRate float64 `fault:"drop,rate"`
	// CoalesceWindow, when non-zero, coalesces samples delivered within
	// the window (in cycles) of the previous delivery on the same
	// thread: the later sample is merged away, modelling interrupt
	// coalescing under handler backpressure. It is the one count that
	// turns injection on by itself.
	CoalesceWindow uint64 `fault:"coalesce,count,enables"`

	// LBR corruption regimes, checked once per sample delivery.
	// LBRTruncateRate truncates the snapshot to a random shorter
	// prefix; LBRStaleRate splices entries from an earlier snapshot
	// over the tail (stale records from a prior transaction);
	// LBRClearAbortRate clears the abort bit on LBR[0], hiding the
	// evidence the profiler's in-transaction classification needs.
	LBRTruncateRate   float64 `fault:"lbr-trunc,rate"`
	LBRStaleRate      float64 `fault:"lbr-stale,rate"`
	LBRClearAbortRate float64 `fault:"lbr-noabort,rate"`

	// StallRate preempts the thread for up to StallCycles cycles
	// (uniform in [1, StallCycles]), checked once per operation —
	// thread stalls and preemption bursts. StallCycles defaults to
	// 5000 when a rate is set.
	StallRate   float64 `fault:"stall,rate"`
	StallCycles uint64  `fault:"stall-cycles,count"`
	// ClockSkewRate perturbs a delivered sample's timestamp by up to
	// ±ClockSkewCycles cycles (default 2000), modelling cross-core TSC
	// skew spikes. The thread's own clock is unaffected, so only
	// time-keyed analyses (shadow-memory windows) observe the skew.
	ClockSkewRate   float64 `fault:"skew,rate"`
	ClockSkewCycles uint64  `fault:"skew-cycles,count"`

	// CrashWriteOffset, when non-zero, arms the crash-at-write-offset
	// mode: the first profile database persisted after the run is torn
	// after this many bytes and the frontend simulates a process kill
	// (immediate exit, no cleanup), leaving genuinely torn files for
	// the recovery paths to detect. It is a storage fault: it does not
	// perturb the run itself and is excluded from Enabled and from
	// campaign config hashes.
	CrashWriteOffset uint64 `fault:"crash-write,count"`

	// PmemCrashPoint, when set, arms persistent-memory crash injection
	// (the machine's pmem tier must be enabled): at each triggering
	// durable commit the machine simulates a whole-machine crash at the
	// named point of the persist epilogue — one of PmemCrashPoints —
	// tears the undo log accordingly, runs recovery replay against the
	// persist-domain image, and resumes as after a reboot. Unlike
	// CrashWriteOffset this perturbs the run itself, so it counts
	// toward Enabled. PmemCrashTx fires once, at the Nth durable
	// commit; PmemCrashEvery fires at every Nth durable commit (a crash
	// storm). With a point set and neither trigger, PmemCrashTx
	// defaults to 1.
	PmemCrashPoint string `fault:"pmem-crash,name"`
	PmemCrashTx    uint64 `fault:"pmem-crash-tx,count"`
	PmemCrashEvery uint64 `fault:"pmem-crash-every,count"`

	// Storms inject bursty correlated faults: every StormPeriod
	// operations a storm runs for StormLength operations during which
	// every rate above is multiplied by StormFactor (default 10,
	// capped so probabilities stay <= 1). StormPeriod = 0 disables
	// storms.
	StormPeriod uint64  `fault:"storm-period,count"`
	StormLength uint64  `fault:"storm-len,count"`
	StormFactor float64 `fault:"storm-factor,factor"`
}

// The persistent-memory crash-point taxonomy (DESIGN.md §13): where in
// the durable-commit epilogue the injected crash lands.
const (
	// PmemCrashBeforeFlush crashes with the undo log fully durable but
	// before any data-line flush: recovery rolls the whole transaction
	// back.
	PmemCrashBeforeFlush = "before-flush"
	// PmemCrashMidLog crashes during undo logging: only a prefix of the
	// transaction's log entries is durable (and, by the undo-ordering
	// invariant, only those lines' data can have reached the persist
	// domain).
	PmemCrashMidLog = "mid-log"
	// PmemCrashTornTail crashes mid-append: the log ends inside a
	// record, which recovery must detect by its checksum.
	PmemCrashTornTail = "torn-tail"
	// PmemCrashAfterCommit crashes after the commit record is durable:
	// recovery finds a committed log and rolls nothing back.
	PmemCrashAfterCommit = "after-commit"
)

// PmemCrashPoints lists the valid Plan.PmemCrashPoint values.
var PmemCrashPoints = []string{
	PmemCrashBeforeFlush, PmemCrashMidLog, PmemCrashTornTail, PmemCrashAfterCommit,
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool { return p.perThread() || p.PmemArmed() }

// perThread reports whether the plan sets a regime the per-thread
// Injector injects (a rate or the coalesce window; see spell.go): any
// but the pmem crash point, which the machine's pmem tier injects.
func (p Plan) perThread() bool { return injects(p) }

// PmemArmed reports whether the plan injects persistent-memory
// crashes. The pmem crash machinery lives in the machine's pmem tier,
// not the per-thread injector, but an armed plan perturbs the run and
// so counts as enabled.
func (p Plan) PmemArmed() bool { return p.PmemCrashPoint != "" }

// MachineOnly returns the plan with storage-side faults stripped:
// only the regimes that perturb the run itself remain. Campaign config
// hashes use it, so arming crash-at-write-offset does not change a
// shard's identity (the run it tears is bit-identical to a clean one).
func (p Plan) MachineOnly() Plan {
	p.CrashWriteOffset = 0
	return p
}

// Validate checks that every rate is a probability, the storm factor
// is finite and non-negative, the storm geometry is coherent, and a
// pmem crash point is a known one and set whenever a trigger is.
func (p Plan) Validate() error {
	if err := checkRanges(p); err != nil {
		return err
	}
	if p.StormPeriod > 0 && p.StormLength == 0 {
		return fmt.Errorf("faults: storm period set but storm length is zero")
	}
	if p.StormLength > p.StormPeriod && p.StormPeriod > 0 {
		return fmt.Errorf("faults: storm length %d exceeds period %d", p.StormLength, p.StormPeriod)
	}
	if p.PmemCrashPoint != "" {
		if !slices.Contains(PmemCrashPoints, p.PmemCrashPoint) {
			return fmt.Errorf("faults: unknown pmem crash point %q (valid points: %s; valid presets: %s)",
				p.PmemCrashPoint, strings.Join(PmemCrashPoints, ", "), strings.Join(PresetNames(), ", "))
		}
	} else if p.PmemCrashTx > 0 || p.PmemCrashEvery > 0 {
		return fmt.Errorf("faults: pmem crash trigger set without pmem-crash point (valid points: %s)",
			strings.Join(PmemCrashPoints, ", "))
	}
	return nil
}

func (p Plan) withDefaults() Plan {
	if p.StallRate > 0 && p.StallCycles == 0 {
		p.StallCycles = 5000
	}
	if p.ClockSkewRate > 0 && p.ClockSkewCycles == 0 {
		p.ClockSkewCycles = 2000
	}
	if p.StormPeriod > 0 && p.StormFactor == 0 {
		p.StormFactor = 10
	}
	if p.PmemCrashPoint != "" && p.PmemCrashTx == 0 && p.PmemCrashEvery == 0 {
		p.PmemCrashTx = 1
	}
	return p
}

// WithDefaults returns the plan with defaulted fields filled in; the
// machine's pmem tier uses it to read the effective crash trigger.
func (p Plan) WithDefaults() Plan { return p.withDefaults() }

// String renders the plan in the key=value form ParsePlan accepts.
func (p Plan) String() string { return spell(p) }

// Presets name ready-made plans for the CLI and the chaos suite.
var Presets = map[string]Plan{
	"spurious": {SpuriousAbortRate: 0.01},
	"drops":    {SampleDropRate: 0.2, CoalesceWindow: 400},
	"lbr":      {LBRTruncateRate: 0.1, LBRStaleRate: 0.05, LBRClearAbortRate: 0.05},
	"sched":    {StallRate: 0.002, StallCycles: 4000, ClockSkewRate: 0.05, ClockSkewCycles: 2000},
	"storm": {
		SpuriousAbortRate: 0.002, SampleDropRate: 0.02, LBRTruncateRate: 0.01,
		StormPeriod: 4000, StormLength: 400, StormFactor: 25,
	},
	// elide-storm targets the elision ladder: dense spurious-abort
	// bursts knock speculative lock acquisitions onto the fallback
	// path, stress-testing per-site verdict stability under abort
	// storms.
	"elide-storm": {
		SpuriousAbortRate: 0.005,
		StormPeriod:       3000, StormLength: 600, StormFactor: 30,
	},
	"all": {
		SpuriousAbortRate: 0.005, SampleDropRate: 0.1, CoalesceWindow: 300,
		LBRTruncateRate: 0.05, LBRStaleRate: 0.02, LBRClearAbortRate: 0.02,
		StallRate: 0.001, StallCycles: 3000, ClockSkewRate: 0.02,
		StormPeriod: 8000, StormLength: 500, StormFactor: 10,
	},
	// The pmem presets require a machine with the persistent tier
	// enabled; on a machine without tracked durable lines they inject
	// nothing.
	"torn-flush":    {PmemCrashPoint: PmemCrashTornTail, PmemCrashEvery: 5},
	"crash-mid-log": {PmemCrashPoint: PmemCrashMidLog, PmemCrashEvery: 5},
}

// PmemPreset reports whether the named preset is one of the
// persistent-memory crash presets (which need a pmem-enabled machine
// to inject anything).
func PmemPreset(name string) bool {
	p, ok := Presets[name]
	return ok && p.PmemArmed()
}

// PresetNames returns the preset names, sorted.
func PresetNames() []string { return presetNames(Presets) }

// ParsePlan parses a comma-separated key=value fault specification,
// e.g. "spurious=0.01,drop=0.2,storm-period=4000,storm-len=400".
// A bare preset name (see PresetNames) or "none" is also accepted.
// The result is validated.
func ParsePlan(s string) (Plan, error) { return parse(s, Presets) }

// Stats counts the faults one injector actually delivered. The machine
// aggregates per-thread stats into its fault report.
type Stats struct {
	SpuriousAborts   uint64 `json:"spurious_aborts,omitempty"`
	DroppedSamples   uint64 `json:"dropped_samples,omitempty"`
	CoalescedSamples uint64 `json:"coalesced_samples,omitempty"`
	TruncatedLBRs    uint64 `json:"truncated_lbrs,omitempty"`
	StaleLBRs        uint64 `json:"stale_lbrs,omitempty"`
	ClearedAbortBits uint64 `json:"cleared_abort_bits,omitempty"`
	Stalls           uint64 `json:"stalls,omitempty"`
	StallCycles      uint64 `json:"stall_cycles,omitempty"`
	ClockSkews       uint64 `json:"clock_skews,omitempty"`
	StormOps         uint64 `json:"storm_ops,omitempty"`

	// Persistent-memory crash injection (counted by the machine's pmem
	// tier, not a per-thread injector).
	PmemCrashes    uint64 `json:"pmem_crashes,omitempty"`
	PmemRolledBack uint64 `json:"pmem_rolled_back,omitempty"`
	PmemTornTails  uint64 `json:"pmem_torn_tails,omitempty"`
}

// Merge accumulates src into s.
func (s *Stats) Merge(src Stats) {
	s.SpuriousAborts += src.SpuriousAborts
	s.DroppedSamples += src.DroppedSamples
	s.CoalescedSamples += src.CoalescedSamples
	s.TruncatedLBRs += src.TruncatedLBRs
	s.StaleLBRs += src.StaleLBRs
	s.ClearedAbortBits += src.ClearedAbortBits
	s.Stalls += src.Stalls
	s.StallCycles += src.StallCycles
	s.ClockSkews += src.ClockSkews
	s.StormOps += src.StormOps
	s.PmemCrashes += src.PmemCrashes
	s.PmemRolledBack += src.PmemRolledBack
	s.PmemTornTails += src.PmemTornTails
}

// Total returns the number of injected faults of every kind (storm ops,
// stall cycles, and recovery rollback counts are bookkeeping, not
// faults, and are excluded; a torn tail is an aspect of its crash, not
// a second fault).
func (s Stats) Total() uint64 {
	return s.SpuriousAborts + s.DroppedSamples + s.CoalescedSamples +
		s.TruncatedLBRs + s.StaleLBRs + s.ClearedAbortBits + s.Stalls + s.ClockSkews +
		s.PmemCrashes
}

// Injector is one thread's fault source. It must only be used from the
// owning thread's scheduling points, so its PRNG advances in the
// machine's deterministic total order.
type Injector struct {
	plan  Plan
	rng   stream
	ops   uint64 // operations seen, drives the storm phase
	last  uint64 // clock of the last delivered (not dropped) sample
	any   bool   // a sample was delivered before
	stale []lbr.Entry

	Stats Stats
}

// NewInjector returns an injector for the plan, deterministically
// seeded (seed is typically machineSeed mixed with the thread ID).
// Returns nil for a plan that sets no per-thread regime — a crash-only
// pmem plan included — so the machine's hot path can test a single
// pointer and spin waits keep their fast-forward.
func NewInjector(p Plan, seed uint64) *Injector {
	p = p.withDefaults()
	if !p.perThread() {
		return nil
	}
	return &Injector{plan: p, rng: newStream(seed)}
}

// stream is a seeded xorshift64 generator, the one source of both
// injectors' decisions. Its state is never zero.
type stream uint64

func newStream(seed uint64) stream {
	s := stream(seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// next advances the generator.
func (s *stream) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = stream(x)
	return x
}

// chance returns true with probability p, drawing nothing when p <= 0.
func (s *stream) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(s.next()%1_000_000_000) < p*1_000_000_000
}

// chance returns true with probability p, scaled by the storm factor
// (and capped at 1) when a storm is active.
func (in *Injector) chance(p float64) bool {
	if in.storming() {
		p = min(p*in.plan.StormFactor, 1)
	}
	return in.rng.chance(p)
}

// storming reports whether the current operation falls in a storm
// window.
func (in *Injector) storming() bool {
	return in.plan.StormPeriod > 0 && in.ops%in.plan.StormPeriod < in.plan.StormLength
}

// Tick advances the injector by one machine operation. It must be
// called exactly once per operation, before any other query for that
// operation.
func (in *Injector) Tick() {
	in.ops++
	if in.storming() {
		in.Stats.StormOps++
	}
}

// SpuriousAbort reports whether the current in-transaction operation
// suffers a spurious transient abort.
func (in *Injector) SpuriousAbort() bool {
	if !in.chance(in.plan.SpuriousAbortRate) {
		return false
	}
	in.Stats.SpuriousAborts++
	return true
}

// Stall returns the preemption penalty, in cycles, to add to the
// thread's clock at this operation (0 = no stall).
func (in *Injector) Stall() uint64 {
	if in.plan.StallCycles == 0 || !in.chance(in.plan.StallRate) {
		return 0
	}
	n := in.rng.next()%in.plan.StallCycles + 1
	in.Stats.Stalls++
	in.Stats.StallCycles += n
	return n
}

// DropSample reports whether the sample about to be delivered at the
// given thread clock is lost — either dropped outright or coalesced
// into the previous delivery. A dropped sample does not update the
// backpressure window; a delivered one does.
func (in *Injector) DropSample(now uint64) bool {
	if in.plan.CoalesceWindow > 0 && in.any && now-in.last < in.plan.CoalesceWindow {
		in.Stats.CoalescedSamples++
		return true
	}
	if in.chance(in.plan.SampleDropRate) {
		in.Stats.DroppedSamples++
		return true
	}
	in.last = now
	in.any = true
	return false
}

// SkewTime perturbs a sample timestamp by up to ±ClockSkewCycles.
func (in *Injector) SkewTime(now uint64) uint64 {
	if in.plan.ClockSkewCycles == 0 || !in.chance(in.plan.ClockSkewRate) {
		return now
	}
	in.Stats.ClockSkews++
	d := in.rng.next() % (2*in.plan.ClockSkewCycles + 1)
	skewed := now + d
	if skewed < in.plan.ClockSkewCycles {
		return 0
	}
	return skewed - in.plan.ClockSkewCycles
}

// CorruptLBR applies the configured LBR corruption regimes to a
// snapshot (most recent first) and remembers it as the stale source
// for future corruptions. The input slice is owned by the caller and
// is modified in place where possible.
func (in *Injector) CorruptLBR(snapshot []lbr.Entry) []lbr.Entry {
	if len(snapshot) > 0 && snapshot[0].Abort && in.chance(in.plan.LBRClearAbortRate) {
		snapshot[0].Abort = false
		in.Stats.ClearedAbortBits++
	}
	if len(snapshot) > 1 && in.chance(in.plan.LBRTruncateRate) {
		keep := int(in.rng.next()%uint64(len(snapshot)-1)) + 1
		snapshot = snapshot[:keep]
		in.Stats.TruncatedLBRs++
	}
	if len(in.stale) > 0 && len(snapshot) > 1 && in.chance(in.plan.LBRStaleRate) {
		// Splice stale history over the tail: entries from an earlier
		// snapshot appear beyond a random split point, exactly the
		// misaligned window a late LBR freeze produces.
		at := int(in.rng.next()%uint64(len(snapshot)-1)) + 1
		n := copy(snapshot[at:], in.stale)
		snapshot = snapshot[:at+n]
		in.Stats.StaleLBRs++
	}
	// Remember this (possibly corrupted) snapshot as future stale data.
	in.stale = append(in.stale[:0], snapshot...)
	return snapshot
}

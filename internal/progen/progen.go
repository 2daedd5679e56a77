// Package progen generates seed-deterministic random transactional
// programs: small DSL descriptions over the simulated machine's op set
// (transaction begin/end, loads/stores with controllable footprint and
// conflict topology, nested transactions and fallback-lock paths,
// in-transaction call trees, unfriendly instructions) that compile
// into runnable htmbench workloads.
//
// The generator exists to exercise the profiler on the long tail of
// transaction shapes a fixed benchmark suite cannot cover (paper
// §7.2's hidden-ground-truth validation, extended to randomized
// programs). Every program records, by construction, the ground truth
// the validation harness (internal/validate) judges the profiler
// against: which source sites truly share data, which falsely share a
// cache line, what the final memory state must be, and which abort
// causes its regions can produce.
//
// Generation is a pure function of the Config: the same seed yields
// the same Program, and building the program on two machines yields
// bit-identical executions for equal machine seeds.
package progen

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/rtm"
)

// Kind enumerates the region templates the generator composes
// programs from. Each kind is designed to provoke one documented
// profiler-visible behaviour with a known ground truth; the kinds
// table holds each one's ground truth.
type Kind uint8

const (
	// KindPrivate updates a per-thread private cache line: the
	// low-abort baseline region.
	KindPrivate Kind = iota
	// KindTrueShare makes every thread read-modify-write the same
	// word: conflict aborts plus true-sharing memory samples.
	KindTrueShare
	// KindFalseShare gives each thread its own word on one shared
	// cache line: conflict aborts despite disjoint data, plus
	// false-sharing memory samples.
	KindFalseShare
	// KindCapacity writes a strided footprint through one L1 set; at
	// Lines > associativity the write set overflows and the region
	// aborts with a capacity(write) cause on every attempt.
	KindCapacity
	// KindSyscall executes an unfriendly instruction inside the
	// transaction on every Every'th iteration: synchronous aborts and
	// guaranteed fallback serialization.
	KindSyscall
	// KindExplicit XABORTs the transaction on every Every'th
	// iteration: explicit aborts with fallback re-execution.
	KindExplicit
	// KindNested opens a nested transaction (TSX flattening) around
	// its update; in the fallback path the nested begin runs
	// non-speculatively under the held lock.
	KindNested

	// The stm mix's templates force the slow path with an unfriendly
	// instruction, so that under a software-capable hybrid policy the
	// region executes as a software transaction (and under lock-only,
	// under the global lock) — the workloads the four-way
	// mode-classification validation runs on.

	// KindStmConflict forces the slow path and holds a wide
	// read-compute-write window over one contended word: software
	// validation failures, undo-log rollbacks, and retries.
	KindStmConflict
	// KindStmCapacity forces the slow path and writes a strided
	// multi-line footprint: large read/write sets, long validation
	// scans, and many per-word locks held at once.
	KindStmCapacity

	// The pmem mix's templates are durable regions registered with the
	// machine's persistent-memory tier, so every committed section runs
	// the durable-commit persist epilogue — the workloads the
	// persistence-stall classification validation runs on. Durable
	// lines are strictly thread-private, keeping generated programs
	// sound under crash injection and section re-execution.

	// KindPmemKV read-modify-writes one durable per-thread line, as a
	// persistent key-value store's put path would.
	KindPmemKV
	// KindPmemLog appends to a durable per-thread log and bumps a
	// durable cursor: two persistent lines per commit.
	KindPmemLog

	// The elide mix's templates each run under their own
	// rtm.ElidedLock (not the program's global lock), built so the
	// elision verdict is unambiguous by construction — ElideVerdict is
	// the ground truth the verdict validation scores against.

	// KindElideWin updates a short per-thread private counter: the
	// speculative path essentially always commits, so elision wins.
	KindElideWin
	// KindElideRead reads a never-written shared line and bumps a
	// private counter — the RWMutex read-mostly shape. No conflicts,
	// so elision wins.
	KindElideRead
	// KindElideSyscall executes an unfriendly instruction on every
	// single visit: every speculative attempt sync-aborts and the
	// section serializes through the ladder's tail, so elision loses.
	KindElideSyscall
	// KindElideCapacity writes a footprint past the L1 associativity
	// on every visit: every speculative attempt capacity-aborts, so
	// elision loses.
	KindElideCapacity
)

// kindSpec is one region template's row: its name and the ground
// truth its construction fixes.
type kindSpec struct {
	name string
	// Sites of same-word or same-line/different-word cross-thread
	// accesses.
	trueShare, falseShare bool
	// elided regions run under their own rtm.ElidedLock; wins is the
	// by-construction elision verdict.
	elided, wins bool
	// durable regions register their lines with the pmem tier.
	durable bool
	// unstable regions break the period-stability invariant's premise
	// that the sampling grid only moves the observation points: on the
	// slow path, behind the persist epilogue's canonical commit order,
	// or on the elision ladder, shifted interrupt timing reshapes the
	// conflict interleaving itself.
	unstable bool
	// lines draws the strided footprint of a capacity template.
	lines func(rng *rand.Rand, ways int) int
}

var kinds = [...]kindSpec{
	KindPrivate:    {name: "private"},
	KindTrueShare:  {name: "true-share", trueShare: true},
	KindFalseShare: {name: "false-share", falseShare: true},
	// Around the associativity edge: Ways-1 (always fits), Ways
	// (exactly at capacity), or Ways+1..Ways+2 (overflows), so profiles
	// see both sides of the edge.
	KindCapacity:    {name: "capacity", lines: func(rng *rand.Rand, ways int) int { return ways - 1 + rng.Intn(4) }},
	KindSyscall:     {name: "syscall"},
	KindExplicit:    {name: "explicit"},
	KindNested:      {name: "nested"},
	KindStmConflict: {name: "stm-conflict", trueShare: true, unstable: true},
	// The slow path has no associativity limit; the footprint just
	// sizes the software read/write sets.
	KindStmCapacity:  {name: "stm-capacity", unstable: true, lines: func(rng *rand.Rand, _ int) int { return 2 + rng.Intn(3) }},
	KindPmemKV:       {name: "pmem-kv", durable: true, unstable: true},
	KindPmemLog:      {name: "pmem-log", durable: true, unstable: true},
	KindElideWin:     {name: "elide-win", elided: true, wins: true, unstable: true},
	KindElideRead:    {name: "elide-read", elided: true, wins: true, unstable: true},
	KindElideSyscall: {name: "elide-syscall", elided: true, unstable: true},
	// Always past the associativity edge: every speculative attempt
	// overflows, so the lose verdict is unambiguous.
	KindElideCapacity: {name: "elide-capacity", elided: true, unstable: true, lines: func(rng *rand.Rand, ways int) int { return ways + 1 + rng.Intn(2) }},
}

// ElideVerdict returns the by-construction ground truth for an
// elide-mix kind: ok=false for kinds under the program's global lock,
// otherwise shouldWin says whether a profiler's per-site verdict must
// be "win".
func (k Kind) ElideVerdict() (shouldWin, ok bool) { return kinds[k].wins, kinds[k].elided }

func (k Kind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mix selects the region templates programs are generated from: a set
// over the stm, pmem and elide mixes. The zero value is the default
// mix. A combined set joins its members' pinned regions (in stm, pmem,
// elide order) and draw pools, so features meet in one program.
type Mix uint8

// The feature mixes a Mix combines.
const (
	MixSTM   Mix = 1 << iota // slow-path-forcing regions
	MixPmem                  // durable regions
	MixElide                 // regions under their own elidable locks
	numMixes = 1 << iota
)

// mixRow is one mix's templates: the choices pinned to its first
// regions and the pool every further region draws from. A choice of
// several kinds draws one; a single kind costs no draw.
type mixRow struct {
	mix  Mix
	name string
	pins [][]Kind
	pool []Kind
}

// in reports whether the row is part of mix m: the default row of the
// zero mix, a feature row of every mix that includes it.
func (r mixRow) in(m Mix) bool { return r.mix == m || r.mix&m != 0 }

var mixRows = [...]mixRow{
	// One contended and one private region, so every program has both
	// a known sharing site and a low-abort baseline.
	{0, "default", [][]Kind{{KindTrueShare, KindFalseShare}, {KindPrivate}},
		[]Kind{KindPrivate, KindTrueShare, KindFalseShare, KindCapacity, KindSyscall, KindExplicit, KindNested}},
	// A conflict-heavy and a capacity-heavy slow-path region, then
	// templates that spend time in every execution mode (software
	// path, lock path, waiting, and the hardware path of the unforced
	// kinds).
	{MixSTM, "stm", [][]Kind{{KindStmConflict}, {KindStmCapacity}},
		[]Kind{KindStmConflict, KindStmCapacity, KindPrivate, KindTrueShare, KindSyscall}},
	// Both durable templates, then templates that also spend time in
	// the other execution modes, so persistence stalls compete with
	// real transactional work.
	{MixPmem, "pmem", [][]Kind{{KindPmemKV}, {KindPmemLog}},
		[]Kind{KindPmemKV, KindPmemLog, KindPrivate, KindTrueShare, KindSyscall}},
	// Only verdict-graded templates; one pinned winner and one pinned
	// loser guarantee both verdicts appear.
	{MixElide, "elide", [][]Kind{{KindElideWin}, {KindElideSyscall}},
		[]Kind{KindElideWin, KindElideRead, KindElideSyscall, KindElideCapacity}},
}

// templates returns the mix's pinned choices and draw pool.
func (m Mix) templates() (pins [][]Kind, pool []Kind) {
	for _, row := range mixRows {
		if !row.in(m) {
			continue
		}
		pins = append(pins, row.pins...)
		for _, k := range row.pool {
			if !slices.Contains(pool, k) {
				pool = append(pool, k)
			}
		}
	}
	return pins, pool
}

func (m Mix) String() string {
	var names []string
	for _, row := range mixRows {
		if row.in(m) {
			names = append(names, row.name)
		}
	}
	return strings.Join(names, "+")
}

// Mixes lists every spelling ParseMix accepts.
func Mixes() []string {
	out := make([]string, numMixes)
	for m := range out {
		out[m] = Mix(m).String()
	}
	return out
}

// ParseMix parses a flag spelling: "default", or stm, pmem and elide
// joined by "+" in that order ("pmem+elide").
func ParseMix(s string) (Mix, error) {
	for m := Mix(0); m < numMixes; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("progen: unknown mix %q (want one of %s)", s, strings.Join(Mixes(), ", "))
}

// Region is one generated critical-section template. All threads visit
// every region once per iteration, inside the program's elided global
// lock, wrapped in a generated call chain so in-transaction calling
// contexts are non-trivial.
type Region struct {
	Kind Kind
	ID   int
	// Site is the source-site label (machine.Thread.At) attached to
	// the region's accesses; the validation harness matches reported
	// sharing sites against it.
	Site string
	// Depth is the in-transaction call-chain depth above the access
	// (frames g<ID>_0 .. g<ID>_{Depth-1}).
	Depth int
	// Fanout adds completed sibling calls (call+return pairs) before
	// the access — LBR churn that the §3.4 pairing must replay and
	// discard without corrupting the open-frame reconstruction.
	Fanout int
	// Lines is the strided footprint of a capacity region; with the
	// benchmark cache's 4-way L1 sets, Lines > 4 overflows.
	Lines int
	// Compute is in-transaction compute padding in cycles, widening
	// the conflict window.
	Compute int
	// Every gates KindSyscall/KindExplicit misbehaviour to every
	// Every'th iteration (1 = always).
	Every int
	// NonCSWork is compute burned outside the critical section before
	// each visit, diluting critical-section time.
	NonCSWork int
}

// branches returns the taken in-transaction branches one clean attempt
// of the region records (calls and returns, including the dedicated
// leaf frame), which the generator keeps under the LBR budget so
// fault-free reconstructions never truncate.
func (r Region) branches() int { return 2 * (r.Depth + r.Fanout + 1) }

// Program is one generated transactional program plus its
// by-construction ground truth.
type Program struct {
	Name    string
	Seed    int64
	Threads int
	// Iters is the per-thread iteration count; each iteration visits
	// every region once.
	Iters   int
	Regions []Region

	// TrueSites and FalseSites are the site labels that perform
	// same-word and same-line/different-word cross-thread accesses —
	// the expected answer for the profiler's sharing classification.
	TrueSites  []string
	FalseSites []string
}

// Durable reports whether the program has durable regions: its runs
// need the persistent-memory tier.
func (p *Program) Durable() bool { return p.any(func(s kindSpec) bool { return s.durable }) }

// Elides reports whether the program has elidable lock sites: its runs
// turn elision on.
func (p *Program) Elides() bool { return p.any(func(s kindSpec) bool { return s.elided }) }

// PeriodStable reports whether the program's abort hot spots are
// properties of the program rather than of the sampling grid, so the
// period-stability invariant applies to it.
func (p *Program) PeriodStable() bool { return !p.any(func(s kindSpec) bool { return s.unstable }) }

func (p *Program) any(f func(kindSpec) bool) bool {
	for _, r := range p.Regions {
		if f(kinds[r.Kind]) {
			return true
		}
	}
	return false
}

// Config parameterizes generation. The zero value of every field
// selects a seed-deterministic random choice (or a documented
// default), so Config{Seed: s} is the common call.
type Config struct {
	Seed    int64
	Threads int // 0 = random in [2,6]
	// Regions is the region count (0 = random in [3,6]); a combined
	// mix adds one region per pinned template beyond the first two.
	Regions int
	Iters   int // 0 = random in [30,70]
	// LBRBudget bounds the in-transaction branches a region's clean
	// attempt records (0 = 12, under the default 16-deep LBR so
	// fault-free reconstructions never truncate). Raising it past the
	// machine's LBR depth deliberately generates truncating programs.
	LBRBudget int
	// Ways is the L1 associativity capacity regions overflow against
	// (0 = 4, matching txsampler.BenchCache).
	Ways int
	// Mix selects the region templates (zero = the default mix).
	Mix Mix
}

func (c Config) withDefaults(rng *rand.Rand) Config {
	if c.Threads == 0 {
		c.Threads = 2 + rng.Intn(5)
	}
	if c.Regions == 0 {
		c.Regions = 3 + rng.Intn(4)
	}
	if c.Iters == 0 {
		c.Iters = 30 + rng.Intn(41)
	}
	if c.LBRBudget == 0 {
		c.LBRBudget = 12
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	return c
}

// Generate produces the program for a configuration. It is pure:
// equal configs yield equal programs.
func Generate(cfg Config) *Program {
	rng := rand.New(rand.NewSource(cfg.Seed*0x5deece66d + 0xb))
	cfg = cfg.withDefaults(rng)
	pins, pool := cfg.Mix.templates()
	// Each mix row pins two regions; a combined mix adds its further
	// pins, so it keeps the same pool draws as a single mix.
	cfg.Regions += len(pins) - len(mixRows[0].pins)
	name := fmt.Sprintf("progen/s%d", cfg.Seed)
	if cfg.Mix != 0 {
		name = fmt.Sprintf("progen/%s-s%d", cfg.Mix, cfg.Seed)
	}
	p := &Program{
		Name:    name,
		Seed:    cfg.Seed,
		Threads: cfg.Threads,
		Iters:   cfg.Iters,
	}
	for i := 0; i < cfg.Regions; i++ {
		choices := pool
		if i < len(pins) {
			choices = pins[i]
		}
		kind := choices[0]
		if len(choices) > 1 {
			kind = choices[rng.Intn(len(choices))]
		}
		r := Region{
			Kind:      kind,
			ID:        i,
			Depth:     rng.Intn(4),
			Fanout:    rng.Intn(3),
			Compute:   5 + rng.Intn(40),
			Every:     1 + rng.Intn(4),
			NonCSWork: 20 + rng.Intn(120),
		}
		// Respect the LBR budget: shed fanout first, then depth.
		for r.branches() > cfg.LBRBudget && r.Fanout > 0 {
			r.Fanout--
		}
		for r.branches() > cfg.LBRBudget && r.Depth > 0 {
			r.Depth--
		}
		spec := kinds[kind]
		if spec.lines != nil {
			r.Lines = spec.lines(rng, cfg.Ways)
		}
		r.Site = fmt.Sprintf("r%d_%s", r.ID, r.Kind)
		if spec.trueShare {
			p.TrueSites = append(p.TrueSites, r.Site)
		}
		if spec.falseShare {
			p.FalseSites = append(p.FalseSites, r.Site)
		}
		p.Regions = append(p.Regions, r)
	}
	return p
}

// FrameRegion maps a generated function name back to the region that
// owns it: call-chain frames g<ID>_<lvl>, leaf frames f<ID>, and
// sibling frames h<ID>_<j>. Reports ok=false for runtime frames
// (thread_root, tm_begin, begin_in_tx) and anything else.
func FrameRegion(fn string) (id int, ok bool) {
	if len(fn) < 2 || (fn[0] != 'g' && fn[0] != 'f' && fn[0] != 'h') {
		return 0, false
	}
	num := fn[1:]
	if i := strings.IndexByte(num, '_'); i >= 0 {
		num = num[:i]
	} else if fn[0] != 'f' {
		return 0, false
	}
	id, err := strconv.Atoi(num)
	return id, err == nil
}

// layout is the per-machine address assignment of a program's regions.
type layout struct {
	// shared[i] is the shared line of region i (true/false sharing);
	// private[i][tid] the per-thread private word; capacity[i][tid]
	// the strided footprint lines.
	shared   []mem.Addr
	private  [][]mem.Addr
	capacity [][][]mem.Addr
	// elocks[i] is region i's per-region elidable lock (nil for
	// non-elision kinds, which serialize on the program's global lock).
	elocks []*rtm.ElidedLock
}

// Workload compiles the program into an (unregistered) htmbench
// workload whose Check verifies the machine's final memory state
// against the program's computed expectation.
func (p *Program) Workload() *htmbench.Workload {
	return &htmbench.Workload{
		Name:           p.Name,
		Suite:          "progen",
		Desc:           fmt.Sprintf("generated program: %d regions x %d iters", len(p.Regions), p.Iters),
		DefaultThreads: p.Threads,
		Build:          p.build,
	}
}

func (p *Program) build(ctx *htmbench.Ctx) *htmbench.Instance {
	m := ctx.M
	sets := m.Config().Cache.Sets
	lay := &layout{
		shared:   make([]mem.Addr, len(p.Regions)),
		private:  make([][]mem.Addr, len(p.Regions)),
		capacity: make([][][]mem.Addr, len(p.Regions)),
		elocks:   make([]*rtm.ElidedLock, len(p.Regions)),
	}
	for i, r := range p.Regions {
		if kinds[r.Kind].elided {
			lay.elocks[i] = rtm.NewElidedLock(m, r.Site)
		}
		switch r.Kind {
		case KindTrueShare, KindFalseShare, KindStmConflict:
			lay.shared[i] = m.Mem.AllocLines(1)
		case KindElideRead:
			// Never-written shared line read by every thread, plus the
			// per-thread private progress counter.
			lay.shared[i] = m.Mem.AllocLines(1)
			lay.private[i] = make([]mem.Addr, ctx.Threads)
			for tid := 0; tid < ctx.Threads; tid++ {
				lay.private[i][tid] = m.Mem.AllocLines(1)
			}
		case KindCapacity, KindStmCapacity, KindElideCapacity:
			lay.capacity[i] = make([][]mem.Addr, ctx.Threads)
			for tid := 0; tid < ctx.Threads; tid++ {
				// A strided footprint through one cache set: line j
				// maps to the same set as line 0, so Lines beyond the
				// associativity overflow the transactional write set.
				base := m.Mem.AllocLines(1 + (r.Lines-1)*sets)
				lines := make([]mem.Addr, r.Lines)
				for j := 0; j < r.Lines; j++ {
					lines[j] = base.Offset(j * sets * mem.WordsPerLine)
				}
				lay.capacity[i][tid] = lines
			}
		case KindPmemKV:
			lay.private[i] = make([]mem.Addr, ctx.Threads)
			for tid := 0; tid < ctx.Threads; tid++ {
				lay.private[i][tid] = m.Mem.AllocLines(1)
				m.PmemTrack(lay.private[i][tid], mem.WordsPerLine)
			}
		case KindPmemLog:
			// Per-thread durable cursor line plus a contiguous durable
			// entry array sized for one word per iteration.
			lay.private[i] = make([]mem.Addr, ctx.Threads)
			lay.capacity[i] = make([][]mem.Addr, ctx.Threads)
			entryLines := (p.Iters + mem.WordsPerLine - 1) / mem.WordsPerLine
			for tid := 0; tid < ctx.Threads; tid++ {
				lay.private[i][tid] = m.Mem.AllocLines(1)
				m.PmemTrack(lay.private[i][tid], mem.WordsPerLine)
				base := m.Mem.AllocLines(entryLines)
				lines := make([]mem.Addr, entryLines)
				for j := 0; j < entryLines; j++ {
					lines[j] = base.Offset(j * mem.WordsPerLine)
				}
				lay.capacity[i][tid] = lines
				m.PmemTrack(base, entryLines*mem.WordsPerLine)
			}
		default:
			lay.private[i] = make([]mem.Addr, ctx.Threads)
			for tid := 0; tid < ctx.Threads; tid++ {
				lay.private[i][tid] = m.Mem.AllocLines(1)
			}
		}
	}

	bodies := make([]func(*machine.Thread), ctx.Threads)
	for tid := 0; tid < ctx.Threads; tid++ {
		tid := tid
		bodies[tid] = func(t *machine.Thread) {
			for it := 0; it < p.Iters; it++ {
				for i := range p.Regions {
					p.visit(ctx, lay, &p.Regions[i], t, tid, it)
				}
			}
		}
	}
	return &htmbench.Instance{Bodies: bodies, Check: p.check(ctx.Threads, lay)}
}

// visit executes one region visit on thread tid, iteration it.
// Elision-kind regions serialize on their own elidable lock (whose Run
// pushes the elide:<site> frame the analyzer aggregates on); everything
// else shares the program's global lock.
func (p *Program) visit(ctx *htmbench.Ctx, lay *layout, r *Region, t *machine.Thread, tid, it int) {
	t.Compute(r.NonCSWork)
	body := func() {
		p.descend(r, t, r.Depth, func() {
			t.At(r.Site)
			p.access(lay, r, t, tid, it)
		})
	}
	if el := lay.elocks[r.ID]; el != nil {
		el.Run(t, body)
		return
	}
	ctx.Lock.Run(t, body)
}

// descend wraps leaf in the region's generated call chain, inserting
// the completed sibling calls (LBR churn) at the innermost level. The
// leaf always gets a dedicated frame so its source-site annotation
// (Thread.At) is popped with the frame — otherwise a depth-0 region
// would leave a stale site on the caller's frame and the next
// region's lock-word spin samples would be mis-attributed to it.
func (p *Program) descend(r *Region, t *machine.Thread, depth int, leaf func()) {
	if depth == 0 {
		t.Func(fmt.Sprintf("f%d", r.ID), func() {
			for j := 0; j < r.Fanout; j++ {
				t.Func(fmt.Sprintf("h%d_%d", r.ID, j), func() {
					t.Compute(2)
				})
			}
			leaf()
		})
		return
	}
	t.Func(fmt.Sprintf("g%d_%d", r.ID, r.Depth-depth), func() {
		p.descend(r, t, depth-1, leaf)
	})
}

// access performs the region's memory operations. Bodies must be
// idempotent up to their writes (any transactional attempt may be
// discarded), so every template applies its externally visible effect
// exactly once per committed execution.
func (p *Program) access(lay *layout, r *Region, t *machine.Thread, tid, it int) {
	i := r.ID
	switch r.Kind {
	case KindPrivate:
		t.Compute(r.Compute)
		t.Add(lay.private[i][tid], 1)
	case KindTrueShare:
		v := t.Load(lay.shared[i])
		t.Compute(r.Compute)
		t.Store(lay.shared[i], v+1)
	case KindFalseShare:
		slot := lay.shared[i].Offset(tid % mem.WordsPerLine)
		v := t.Load(slot)
		t.Compute(r.Compute)
		t.Store(slot, v+1)
	case KindCapacity, KindElideCapacity:
		t.Compute(r.Compute)
		for _, line := range lay.capacity[i][tid] {
			t.Store(line, mem.Word(it)+1)
		}
	case KindSyscall:
		t.Add(lay.private[i][tid], 1)
		if it%r.Every == 0 {
			t.Syscall("generated")
		}
		t.Compute(r.Compute)
	case KindExplicit:
		t.Add(lay.private[i][tid], 1)
		t.Compute(r.Compute)
		if it%r.Every == 0 && t.InTx() {
			// XABORT outside a transaction is a no-op on real TSX, so
			// the fallback re-execution of this body just commits the
			// update under the lock.
			t.TxAbort()
		}
	case KindStmConflict:
		// The syscall is a Sync (non-retryable) abort in the hardware
		// attempt, so the region always executes on the configured slow
		// path; the wide compute window between the read and the write
		// provokes software validation failures under contention.
		t.Syscall("stm_forced")
		v := t.Load(lay.shared[i])
		t.Compute(r.Compute * 4)
		t.Store(lay.shared[i], v+1)
	case KindStmCapacity:
		t.Syscall("stm_forced")
		t.Compute(r.Compute)
		for _, line := range lay.capacity[i][tid] {
			t.Store(line, mem.Word(it)+1)
		}
	case KindPmemKV:
		// Durable put: read-modify-write one thread-private persistent
		// line; every commit pays the persist epilogue for it.
		line := lay.private[i][tid]
		v := t.Load(line)
		t.Compute(r.Compute)
		t.Store(line, v+1)
	case KindPmemLog:
		// Durable append: write the next entry word and bump the
		// cursor — two persistent lines dirty per commit. The cursor
		// is read transactionally, so a discarded attempt (crash,
		// abort) re-derives the same slot on re-execution.
		cursor := lay.private[i][tid]
		cur := int(t.Load(cursor))
		t.Compute(r.Compute)
		lines := lay.capacity[i][tid]
		t.Store(lines[cur/mem.WordsPerLine].Offset(cur%mem.WordsPerLine), mem.Word(it)+1)
		t.Store(cursor, mem.Word(cur)+1)
	case KindElideWin:
		// Short, conflict-free critical section: the ideal elision
		// target.
		t.Compute(r.Compute / 4)
		t.Add(lay.private[i][tid], 1)
	case KindElideRead:
		// Read-mostly: load a line no thread ever writes, then update
		// private state. Speculative attempts never conflict.
		t.Load(lay.shared[i])
		t.Compute(r.Compute)
		t.Add(lay.private[i][tid], 1)
	case KindElideSyscall:
		// The unfriendly instruction sync-aborts every speculative
		// attempt, so every visit serializes through the ladder's tail.
		t.Add(lay.private[i][tid], 1)
		t.Syscall("elide_serial")
		t.Compute(r.Compute)
	case KindNested:
		t.Compute(r.Compute)
		// A nested transaction: in the speculative path it flattens
		// into the enclosing one (an abort unwinds to the outermost
		// XBEGIN, past this loop). In the fallback path there is no
		// enclosing transaction, so the nested begin opens a real
		// top-level one while the lock is held — the nested
		// fallback-lock shape the paper's fixed suite never
		// exercises; after a few aborted attempts (ambient faults
		// can doom them) it executes directly under the lock.
		for try := 0; ; try++ {
			if t.Attempt(func() { t.Add(lay.private[i][tid], 1) }) == nil {
				break
			}
			if try == 2 {
				t.Add(lay.private[i][tid], 1)
				break
			}
		}
	}
}

// check returns the result validator: every region's final memory
// state must match the program's arithmetic expectation, proving the
// generated program executed to completion exactly once per committed
// path.
func (p *Program) check(threads int, lay *layout) func(m *machine.Machine) error {
	return func(m *machine.Machine) error {
		iters := mem.Word(p.Iters)
		for i, r := range p.Regions {
			switch r.Kind {
			case KindTrueShare, KindStmConflict:
				want := iters * mem.Word(threads)
				if got := m.Mem.Load(lay.shared[i]); got != want {
					return fmt.Errorf("progen: region %d (%s): shared word = %d, want %d", i, r.Kind, got, want)
				}
			case KindFalseShare:
				// Threads beyond WordsPerLine share a slot.
				want := make(map[mem.Addr]mem.Word)
				for tid := 0; tid < threads; tid++ {
					want[lay.shared[i].Offset(tid%mem.WordsPerLine)] += iters
				}
				for a, w := range want {
					if got := m.Mem.Load(a); got != w {
						return fmt.Errorf("progen: region %d (%s): slot %v = %d, want %d", i, r.Kind, a, got, w)
					}
				}
			case KindElideRead:
				if got := m.Mem.Load(lay.shared[i]); got != 0 {
					return fmt.Errorf("progen: region %d (%s): read-only line = %d, want 0", i, r.Kind, got)
				}
			case KindCapacity, KindStmCapacity, KindElideCapacity:
				for tid := 0; tid < threads; tid++ {
					for j, line := range lay.capacity[i][tid] {
						if got := m.Mem.Load(line); got != iters {
							return fmt.Errorf("progen: region %d (%s): thread %d line %d = %d, want %d", i, r.Kind, tid, j, got, iters)
						}
					}
				}
			case KindPmemLog:
				for tid := 0; tid < threads; tid++ {
					lines := lay.capacity[i][tid]
					for j := 0; j < p.Iters; j++ {
						a := lines[j/mem.WordsPerLine].Offset(j % mem.WordsPerLine)
						if got := m.Mem.Load(a); got != mem.Word(j)+1 {
							return fmt.Errorf("progen: region %d (%s): thread %d entry %d = %d, want %d", i, r.Kind, tid, j, got, j+1)
						}
					}
				}
			}
			// Every per-thread private word (a counter, or the log's
			// cursor) takes one increment per iteration.
			for tid, a := range lay.private[i] {
				if got := m.Mem.Load(a); got != iters {
					return fmt.Errorf("progen: region %d (%s): thread %d counter = %d, want %d", i, r.Kind, tid, got, iters)
				}
			}
		}
		return nil
	}
}

package txsampler_test

// Cross-feature suite. The equivalence matrix runs each program under
// every hybrid policy, with elision off and on where the program has
// elidable locks, at each of its family's scheduler quanta, and — for
// durable programs — with the persistent-memory tier on, clean and
// under a crash storm at every crash point. The generated-program
// families add the fault-preset axis: every policy with every feature
// on, under each ambient abort storm preset. Every cell must end in the
// plain run's final memory: the programs' results are pure functions
// of their committed operations, so byte-identical memory proves that
// no execution path (hardware, software slow path, elision ladder,
// crash recovery) leaves residue. Durable programs must also converge
// to one persist-domain image. The workload lock's statistics, which
// its threads update outside Exclusive sections, must be identical
// across the quanta of each cell, so every family whose programs run
// sections on that lock includes the per-op quantum 1. The profiled
// checks after the matrix drive each feature through the full
// pipeline.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"txsampler"
	"txsampler/internal/faults"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/profile"
	"txsampler/internal/progen"
	"txsampler/internal/rtm"
)

func allPolicies() []machine.HybridPolicy {
	return []machine.HybridPolicy{
		machine.HybridLockOnly,
		machine.HybridStmFallback,
		machine.HybridSerializeOnConflict,
		machine.HybridSandboxed,
	}
}

// matrixProgram is one entry of the matrix's program axis.
type matrixProgram struct {
	w       *htmbench.Workload
	seed    int64
	threads int
	// elides and durable switch on the elision and pmem axes.
	elides, durable bool
}

// workloads returns registered workloads at one seed; threads 0 keeps
// each workload's default. The elide and pmem suites are the
// registered programs with elidable locks and durable regions.
func workloads(t *testing.T, seed int64, threads int, names ...string) []matrixProgram {
	t.Helper()
	var out []matrixProgram
	for _, name := range names {
		w, err := htmbench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := matrixProgram{w: w, seed: seed, threads: threads, elides: w.Suite == "elide", durable: w.Suite == "pmem"}
		if p.threads == 0 {
			p.threads = w.DefaultThreads
		}
		out = append(out, p)
	}
	return out
}

// generated returns progen seeds 1-3 of each mix; a generated program
// reports its own features.
func generated(mixes ...progen.Mix) []matrixProgram {
	var out []matrixProgram
	for _, mix := range mixes {
		for seed := int64(1); seed <= 3; seed++ {
			p := progen.Generate(progen.Config{Seed: seed, Mix: mix})
			out = append(out, matrixProgram{w: p.Workload(), seed: seed, threads: p.Threads,
				elides: p.Elides(), durable: p.Durable()})
		}
	}
	return out
}

// cell is one machine configuration of the matrix; the zero cell is
// the plain run.
type cell struct {
	pol     machine.HybridPolicy
	el      machine.ElisionMode
	quantum int
	pmem    bool
	crash   string // pmem crash point ("" = none)
	preset  string // fault preset ("" = none)
}

func (c cell) String() string {
	s := fmt.Sprintf("%v elision=%v q=%d", c.pol, c.el, c.quantum)
	if c.pmem {
		s += " pmem"
	}
	if c.crash != "" {
		s += " crash=" + c.crash
	}
	if c.preset != "" {
		s += " faults=" + c.preset
	}
	return s
}

// image is what a run leaves behind: the final volatile memory, the
// workload lock's statistics, the spurious aborts a fault preset
// injected and, with the pmem tier on, the persist-domain image and
// crash stats.
type image struct {
	vol, persist uint64
	stats        pmem.CrashStats
	lock         rtm.Stats
	spurious     uint64
}

// run executes the program natively in one cell, runs its own Check,
// and returns its final image.
func (p matrixProgram) run(t *testing.T, c cell) image {
	t.Helper()
	cfg := machine.Config{
		Threads: p.threads, Cache: txsampler.BenchCache(), Seed: p.seed, StartSkew: 1024,
		Hybrid: c.pol, Elision: c.el, Quantum: c.quantum, Pmem: pmem.Config{Enabled: c.pmem},
	}
	switch {
	case c.crash != "":
		cfg.Faults = faults.Plan{PmemCrashPoint: c.crash, PmemCrashEvery: 5}
	case c.preset != "":
		cfg.Faults = faults.Presets[c.preset]
	}
	m := machine.New(cfg)
	inst := p.w.BuildInstance(m, nil)
	if err := m.Run(inst.Bodies...); err != nil {
		t.Fatalf("%s [%v]: %v", p.w.Name, c, err)
	}
	if inst.Check != nil {
		if err := inst.Check(m); err != nil {
			t.Fatalf("%s [%v]: result check failed: %v", p.w.Name, c, err)
		}
	}
	img := image{vol: m.Mem.Fingerprint(), lock: inst.Lock.Stats, spurious: m.FaultStats().SpuriousAborts}
	if d := m.Pmem(); d != nil {
		img.persist, img.stats = d.Fingerprint(), d.Stats()
	}
	return img
}

// cells lists the program's matrix: clean cells under every policy ×
// elision mode (off, and on where the program elides) × quantum, with
// the pmem tier on for durable programs, then crash-storm cells at
// every crash point and fault-preset cells, both with every feature on.
// The presets take turns across the policies, one per policy at every
// quantum, which covers each policy and each preset at half the cost
// of the full product.
func (p matrixProgram) cells(presets []string, quanta []int) (clean, crash, storm []cell) {
	elision := []machine.ElisionMode{machine.ElisionOff}
	if p.elides {
		elision = append(elision, machine.ElisionOn)
	}
	for i, pol := range allPolicies() {
		for _, el := range elision {
			for _, q := range quanta {
				c := cell{pol: pol, el: el, quantum: q, pmem: p.durable}
				if c != (cell{}) {
					clean = append(clean, c)
				}
				if el != elision[len(elision)-1] {
					continue
				}
				if len(presets) > 0 {
					sc := c
					sc.preset = presets[i%len(presets)]
					storm = append(storm, sc)
				}
				if !p.durable {
					continue
				}
				for _, point := range faults.PmemCrashPoints {
					c.crash = point
					crash = append(crash, c)
				}
			}
		}
	}
	return clean, crash, storm
}

// checkMatrix runs every program across its matrix with the given
// fault presets and quanta, one parallel subtest per program: every
// cell must end in the plain run's memory, every clean or preset pmem
// cell in the first clean pmem run's persist image, and every cell
// with the lock statistics of the same cell at its first quantum.
// Crash cells are subtests named policy[+elide]/point/q<quantum>.
func checkMatrix(t *testing.T, programs []matrixProgram, presets []string, quanta ...int) {
	for _, p := range programs {
		t.Run(p.w.Name, func(t *testing.T) {
			t.Parallel()
			plain := p.run(t, cell{})
			// locks holds each cell's lock statistics, keyed by the
			// cell at quantum 0.
			locks := map[cell]rtm.Stats{{}: plain.lock}
			sameLock := func(t *testing.T, c cell, got image) {
				t.Helper()
				key := c
				key.quantum = 0
				want, ok := locks[key]
				if !ok {
					locks[key] = got.lock
				} else if !reflect.DeepEqual(got.lock, want) {
					t.Errorf("lock stats under %v differ from another quantum: %+v vs %+v", c, got.lock, want)
				}
			}
			clean, crash, storm := p.cells(presets, quanta)
			var persist uint64
			for i, c := range append(clean, storm...) {
				got := p.run(t, c)
				sameLock(t, c, got)
				if got.vol != plain.vol {
					t.Errorf("final memory under %v differs from the plain run (%#x vs %#x)", c, got.vol, plain.vol)
				}
				if c.preset != "" && got.spurious == 0 {
					t.Errorf("%v injected no spurious abort; the cell is vacuous", c)
				}
				if !p.durable {
					continue
				}
				if got.stats.Crashes != 0 || got.stats.Commits == 0 {
					t.Fatalf("run under %v: %+v, want durable commits and no crashes", c, got.stats)
				}
				if i == 0 {
					persist = got.persist
				} else if got.persist != persist {
					t.Errorf("persist image under %v differs from %v (%#x vs %#x)", c, clean[0], got.persist, persist)
				}
			}
			for _, c := range crash {
				name := c.pol.String()
				if c.el == machine.ElisionOn {
					name += "+elide"
				}
				t.Run(fmt.Sprintf("%s/%s/q%d", name, c.crash, c.quantum), func(t *testing.T) {
					got := p.run(t, c)
					sameLock(t, c, got)
					checkCrash(t, got, plain.vol, persist, c.crash)
				})
			}
		})
	}
}

// checkCrash holds one crash-storm run to the clean images: recovery
// and re-execution must converge to the same volatile memory and the
// same persist-domain image, with the crash point's signature in the
// stats.
func checkCrash(t *testing.T, got image, vol, persist uint64, point string) {
	t.Helper()
	st := got.stats
	if st.Crashes == 0 {
		t.Fatalf("crash storm fired no crashes (stats %+v)", st)
	}
	if got.vol != vol {
		t.Errorf("volatile memory diverged after recovery: %#x vs clean %#x", got.vol, vol)
	}
	if got.persist != persist {
		t.Errorf("persist image diverged after recovery: %#x vs clean %#x", got.persist, persist)
	}
	switch {
	case point == faults.PmemCrashTornTail && st.TornTails == 0:
		t.Errorf("torn-tail crashes recorded no torn tails: %+v", st)
	case point == faults.PmemCrashAfterCommit && st.RolledBack != 0:
		t.Errorf("after-commit crashes rolled back %d entries", st.RolledBack)
	case point == faults.PmemCrashBeforeFlush && st.RolledBack == 0:
		t.Errorf("before-flush crashes rolled nothing back: %+v", st)
	}
}

// equivalenceWorkloads is the HTMBench subset whose final memory is a
// pure function of the committed operations (no order-dependent layout
// like tree shapes or arrival-order logs), so the image must be
// byte-identical across execution modes, not merely check-clean.
var equivalenceWorkloads = []string{
	"micro/low-abort",
	"micro/true-sharing",
	"micro/false-sharing",
	"micro/capacity",
	"micro/sync-abort",
	"micro/deep-calls",
	"micro/mixed",
	"clomp/small-1",
	"clomp/small-2",
	"clomp/small-3",
	"app/hle-counter",
	"parboil/histo-1",
	"splash2/water",
}

var elideWorkloads = []string{
	"elide/sharded-map",
	"elide/read-mostly",
	"elide/counter",
	"elide/syscall-section",
}

// The matrix's program families. Each test runs one family.

func TestHybridPoliciesWorkloadEquivalence(t *testing.T) {
	checkMatrix(t, workloads(t, 1, 0, equivalenceWorkloads...), nil, 0, 1)
}

// TestElisionWorkloadEquivalence needs no quantum-1 cells for the lock
// comparison: the elide programs run every section on their own
// ElidedLocks, never on the workload lock, and
// TestHybridLockStatsQuantumInvariant covers ElidedLock statistics.
func TestElisionWorkloadEquivalence(t *testing.T) {
	checkMatrix(t, workloads(t, 1, 0, elideWorkloads...), nil, 0, 7)
}

func TestPmemCrashRecoveryConvergence(t *testing.T) {
	checkMatrix(t, workloads(t, 7, 4, "pmem/kv", "pmem/log"), nil, 0, 1)
}

// TestHybridPoliciesProgenEquivalence and TestElisionProgenEquivalence
// split the generated programs at the elision axis. A generated
// program's check pins every program word, so fingerprint equality on
// top of it is precisely the no-metadata-residue assertion. Both add
// the ambient abort storms, which push sections down every policy's
// slow path and the elision ladder, at the per-op quantum too.
func TestHybridPoliciesProgenEquivalence(t *testing.T) {
	checkMatrix(t, generated(0, progen.MixSTM, progen.MixPmem, progen.MixSTM|progen.MixPmem), stormPresets, 0, 1)
}

func TestElisionProgenEquivalence(t *testing.T) {
	checkMatrix(t, generated(progen.MixElide, progen.MixSTM|progen.MixElide,
		progen.MixPmem|progen.MixElide, progen.MixSTM|progen.MixPmem|progen.MixElide), stormPresets, 0, 1)
}

// stormPresets are the fault presets of the generated families' fault
// axis.
var stormPresets = []string{"storm", "elide-storm"}

// TestElisionGOMAXPROCSInvariance pins the simulator's determinism
// against host parallelism: an elided run must fingerprint identically
// with the Go runtime throttled to one CPU.
func TestElisionGOMAXPROCSInvariance(t *testing.T) {
	p := workloads(t, 1, 0, "elide/sharded-map")[0]
	c := cell{pol: machine.HybridStmFallback, el: machine.ElisionOn}
	base := p.run(t, c)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := p.run(t, c); got.vol != base.vol {
		t.Errorf("final memory at GOMAXPROCS=1 differs (%#x vs %#x)", got.vol, base.vol)
	}
}

// TestHybridPoliciesProfiledRunChecks drives one contended workload
// through the full profiled pipeline under every policy: the workload
// check and the profiler must both be happy with the software path's
// samples in the stream.
func TestHybridPoliciesProfiledRunChecks(t *testing.T) {
	for _, pol := range allPolicies() {
		res, err := txsampler.Run("micro/true-sharing", txsampler.Options{
			Seed: 2, Profile: true, Hybrid: pol,
		})
		if err != nil {
			t.Fatalf("[%v]: %v", pol, err)
		}
		if res.Report == nil {
			t.Fatalf("[%v]: no report", pol)
		}
	}
}

// TestElisionProfiledVerdicts drives the elide suite through the full
// profiled pipeline with elision on and checks the per-lock-site
// verdict table: the by-construction winners must win, the poisoned
// section must lose, and with elision off every site must report
// plain-lock.
func TestElisionProfiledVerdicts(t *testing.T) {
	wantVerdict := map[string]string{
		"elide/sharded-map":     "win",
		"elide/read-mostly":     "win",
		"elide/syscall-section": "lose",
	}
	for name, want := range wantVerdict {
		res, err := txsampler.Run(name, txsampler.Options{Seed: 1, Profile: true, Elision: machine.ElisionOn})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sites := res.Report.ElisionSites()
		if len(sites) == 0 {
			t.Fatalf("%s: no elision sites in report", name)
		}
		for _, s := range sites {
			if !s.Elided {
				t.Errorf("%s: site %s not marked elided", name, s.Site)
			}
			if got := s.Verdict(); got != want {
				t.Errorf("%s: site %s verdict = %q, want %q", name, s.Site, got, want)
			}
		}
	}

	// Elision off: the same locks run plain, and the analyzer must say
	// so rather than fabricate a verdict.
	res, err := txsampler.Run("elide/sharded-map", txsampler.Options{Seed: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Report.ElisionSites() {
		if got := s.Verdict(); got != "plain-lock" {
			t.Errorf("elision off: site %s verdict = %q, want plain-lock", s.Site, got)
		}
	}
}

// TestElisionStormChaos drives the whole elide suite, eliding, through
// an ambient-abort storm (the elide-storm preset): the ladder must
// neither hang nor corrupt results, the run must stay byte-identical
// across repetitions, degradation must be flagged, and the analyzer
// must still produce a verdict for every site.
func TestElisionStormChaos(t *testing.T) {
	plan := faults.Presets["elide-storm"]
	for _, name := range elideWorkloads {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func() *txsampler.Result {
				res, err := txsampler.Run(name, txsampler.Options{
					Seed: 7, Profile: true, Elision: machine.ElisionOn, Faults: plan,
				})
				if err != nil {
					t.Fatalf("%s under elide-storm: %v", name, err)
				}
				return res
			}
			res := run()
			if res.Report.Quality.Degraded() == 0 {
				t.Error("storm fired but the profile does not report degradation")
			}
			sites := res.Report.ElisionSites()
			if len(sites) == 0 {
				t.Fatal("no elision sites survived the storm")
			}
			for _, s := range sites {
				if !s.Elided {
					t.Errorf("site %s lost its elided marking under the storm", s.Site)
				}
			}
			var a, b bytes.Buffer
			if err := profile.FromReport(res.Report).Write(&a); err != nil {
				t.Fatal(err)
			}
			if err := profile.FromReport(run().Report).Write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("same seed produced different profiles under the storm")
			}
		})
	}
}

// TestPmemProfileAttribution: a profiled pmem run classifies samples
// into the persistence-stall bucket and renders the pmem stanza with
// flush-site attribution.
func TestPmemProfileAttribution(t *testing.T) {
	res, err := txsampler.Run("pmem/kv", txsampler.Options{
		Threads: 4, Seed: 7, Profile: true,
		Pmem: pmem.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Totals.Time[rtm.ModeFlush] == 0 {
		t.Fatal("profiled pmem run recorded no persistence-stall samples")
	}
	if share := res.Report.TimeShares()[rtm.ModeFlush]; share <= 0 || share > 1 {
		t.Fatalf("flush share = %v, want in (0, 1]", share)
	}
	hot := res.Report.TopMode(3, rtm.ModeFlush)
	if len(hot) == 0 {
		t.Fatal("no flush-site contexts ranked by TopMode")
	}
	foundSite := false
	for _, h := range hot {
		for _, f := range h.Frames {
			if f.Fn == "pmem_persist" {
				foundSite = true
			}
		}
	}
	if !foundSite {
		t.Errorf("no TopMode(flush) context passes through the pmem_persist frame: %+v", hot)
	}
	var buf bytes.Buffer
	res.Report.Render(&buf)
	for _, want := range []string{"pmem: persist=", "hottest persistence-stall (flush) contexts:"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report omits %q:\n%s", want, &buf)
		}
	}
}

// TestPmemOffProfileHasNoPersistBucket: without the pmem tier the new
// bucket stays exactly zero and the report omits the pmem stanza.
func TestPmemOffProfileHasNoPersistBucket(t *testing.T) {
	res, err := txsampler.Run("micro/mixed", txsampler.Options{
		Threads: 4, Seed: 7, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Report.Totals.Time[rtm.ModeFlush]; n != 0 {
		t.Fatalf("flush samples = %d without the pmem tier", n)
	}
	var buf bytes.Buffer
	res.Report.Render(&buf)
	if bytes.Contains(buf.Bytes(), []byte("pmem:")) {
		t.Errorf("pmem stanza rendered without the pmem tier:\n%s", &buf)
	}
}

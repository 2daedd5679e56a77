package core

import (
	"testing"

	"txsampler/internal/htm"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// totals sums the profiles' contexts: the collector charges each
// sample to exactly one context of its thread's tree.
func totals(ps ...*Profile) Metrics {
	var m Metrics
	for _, p := range ps {
		p.Tree.Walk(func(n *Node, _ int) { m.Merge(&n.Data) })
	}
	return m
}

func periods(cycles, abort, commit, loads, stores uint64) pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = cycles
	p[pmu.TxAbort] = abort
	p[pmu.TxCommit] = commit
	p[pmu.Loads] = loads
	p[pmu.Stores] = stores
	return p
}

// checker wraps the collector and validates every reconstructed
// context against the machine's ground truth (paper §7.2).
type checker struct {
	c *Collector
	t *testing.T

	checked, truncated int
}

func (k *checker) HandleSample(s *machine.Sample) {
	frames, inTx, trunc := k.c.context(s)
	if inTx != s.TruthInTx {
		k.t.Errorf("in-tx detection wrong: LBR says %v, truth %v", inTx, s.TruthInTx)
	}
	// Strip the pseudo-frame, collapse the statement-level leaf the
	// collector appends under its enclosing frame, and compare
	// function paths.
	collapse := func(in []string) []string {
		var out []string
		for _, fn := range in {
			if len(out) > 0 && out[len(out)-1] == fn {
				continue
			}
			out = append(out, fn)
		}
		return out
	}
	var fns []string
	for _, f := range frames {
		if f == BeginInTx {
			continue
		}
		fns = append(fns, f.Fn)
	}
	fns = collapse(fns)
	var want []string
	for _, f := range s.TruthStack {
		want = append(want, f.Fn)
	}
	want = collapse(want)
	if trunc {
		k.truncated++
		// A truncated reconstruction must still be a suffix-correct
		// prefix+suffix: prefix comes from the stack, so at least the
		// leaf must match.
		if len(fns) > 0 && len(want) > 0 && fns[len(fns)-1] != want[len(want)-1] {
			k.t.Errorf("truncated leaf mismatch: got %v want %v", fns, want)
		}
	} else {
		if len(fns) != len(want) {
			k.t.Errorf("context length: got %v want %v", fns, want)
		} else {
			for i := range fns {
				if fns[i] != want[i] {
					k.t.Errorf("context mismatch at %d: got %v want %v", i, fns, want)
					break
				}
			}
		}
	}
	k.checked++
	k.c.HandleSample(s)
}

// TestReconstructionMatchesGroundTruth runs a contended workload with
// deep in-transaction call chains and checks every sample's
// reconstructed context against the machine's hidden truth.
func TestReconstructionMatchesGroundTruth(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 4, Seed: 13,
		Periods: periods(400, 3, 10, 150, 150),
	})
	col := NewCollector(4, m.Config().Periods)
	k := &checker{c: col, t: t}
	m.SetHandler(k)
	l := rtm.NewLock(m)
	shared := m.Mem.AllocWords(4)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 60; i++ {
			l.Run(th, func() {
				th.Func("A", func() {
					th.Compute(20)
					if i%2 == 0 {
						th.Func("B", func() {
							th.Func("D", func() {
								th.At("update")
								th.Add(shared.Offset(i%4), 1)
							})
						})
					} else {
						th.Func("C", func() {
							th.Func("D", func() {
								th.At("update")
								th.Add(shared.Offset(i%4), 1)
							})
						})
					}
				})
			})
			th.Compute(30)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.checked < 50 {
		t.Fatalf("only %d samples checked; raise sampling rate", k.checked)
	}
}

// TestExactMatchWithPeriodOne validates §7.2's "profiles exactly match
// the ground truth": sampling every abort and commit event must
// reproduce the machine's exact counters.
func TestExactMatchWithPeriodOne(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 2, Seed: 21,
		Periods: periods(0, 1, 1, 0, 0), // every abort and commit
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 80; i++ {
			l.Run(th, func() {
				v := th.Load(a)
				th.Compute(15)
				th.Store(a, v+1)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g := m.GroundTruth()
	tot := totals(col.Profiles()...)
	commits, aborts, byCause := tot.CommitSamples, tot.AbortSamples, tot.AbortCount
	if commits != g.Commits {
		t.Errorf("sampled commits = %d, ground truth %d", commits, g.Commits)
	}
	var truthAborts uint64
	for _, n := range g.Aborts {
		truthAborts += n
	}
	if aborts != truthAborts {
		t.Errorf("sampled aborts = %d, ground truth %d", aborts, truthAborts)
	}
	for c, n := range g.Aborts {
		if byCause[c] != n {
			t.Errorf("cause %v: sampled %d, truth %d", c, byCause[c], n)
		}
	}
}

// TestTimeDecompositionPureTx: a low-contention transactional workload
// spends its critical-section samples overwhelmingly in Ttx.
func TestTimeDecompositionPureTx(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 2, Seed: 3,
		Periods: periods(300, 0, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	arr := m.Mem.AllocLines(64)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 150; i++ {
			l.Run(th, func() {
				// Long transaction on thread-private lines.
				for j := 0; j < 10; j++ {
					th.Add(arr+mem.Addr(th.ID*32*64)+mem.Addr(j*64), 1)
				}
				th.Compute(60)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()...)
	if tot.T() == 0 {
		t.Fatal("no critical-section samples")
	}
	tx, fb := tot.TimeIn(rtm.ModeHTM), tot.TimeIn(rtm.ModeLock)
	if tx*2 < tot.T() {
		t.Errorf("Ttx=%d of T=%d: expected transaction path to dominate (fb=%d wait=%d oh=%d)",
			tx, tot.T(), fb, tot.Time[rtm.ModeWaiting], tot.Time[rtm.ModeOverhead])
	}
	if fb > tot.T()/10 {
		t.Errorf("Tfb=%d of T=%d: low-contention workload should rarely fall back", fb, tot.T())
	}
}

// TestTimeDecompositionFallback: bodies that always sync-abort live in
// the fallback path and serialize on the lock.
func TestTimeDecompositionFallback(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 4, Seed: 8,
		Periods: periods(300, 0, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 40; i++ {
			l.Run(th, func() {
				th.Syscall("io")
				th.Add(a, 1)
				th.Compute(150)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()...)
	if tot.T() == 0 {
		t.Fatal("no critical-section samples")
	}
	if got := tot.TimeIn(rtm.ModeLock) + tot.Time[rtm.ModeWaiting]; got*2 < tot.T() {
		t.Errorf("Tfb+Twait=%d of T=%d: fallback workload should be dominated by fallback+wait (tx=%d oh=%d)",
			got, tot.T(), tot.TimeIn(rtm.ModeHTM), tot.Time[rtm.ModeOverhead])
	}
}

// TestTimeDecompositionOverheadForTinyTx: many tiny transactions make
// Toh a visible fraction (the Histo §8.3 pathology).
func TestTimeDecompositionOverheadForTinyTx(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 2, Seed: 5,
		Periods: periods(200, 0, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	arr := m.Mem.AllocLines(32)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 400; i++ {
			l.Run(th, func() {
				th.Add(arr+mem.Addr(th.ID*16*64), 1) // single tiny update
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()...)
	if tot.T() == 0 {
		t.Fatal("no critical-section samples")
	}
	if oh := tot.Time[rtm.ModeOverhead]; oh*5 < tot.T() {
		t.Errorf("Toh=%d of T=%d: tiny transactions should show substantial overhead share", oh, tot.T())
	}
}

// TestSharingClassification: a true-sharing workload and a
// false-sharing workload must be told apart (the paper's Histo
// diagnosis depends on this).
func TestSharingClassification(t *testing.T) {
	run := func(falseSharing bool) (trueN, falseN uint64) {
		m := machine.New(machine.Config{
			Threads: 4, Seed: 17,
			Periods: periods(0, 0, 0, 25, 25),
		})
		col := Attach(m)
		var target func(th *machine.Thread, i int) mem.Addr
		if falseSharing {
			arr := m.Mem.AllocLines(1) // 8 words on ONE line
			target = func(th *machine.Thread, i int) mem.Addr { return arr.Offset(th.ID * 2) }
		} else {
			w := m.Mem.AllocWords(1)
			target = func(th *machine.Thread, i int) mem.Addr { return w }
		}
		if err := m.RunAll(func(th *machine.Thread) {
			for i := 0; i < 300; i++ {
				th.Add(target(th, i), 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		tot := totals(col.Profiles()...)
		return tot.TrueSharing, tot.FalseSharing
	}

	tn, fn := run(false)
	if tn == 0 || tn < fn {
		t.Errorf("true-sharing workload: true=%d false=%d", tn, fn)
	}
	tn, fn = run(true)
	if fn == 0 || fn < tn {
		t.Errorf("false-sharing workload: true=%d false=%d", tn, fn)
	}
}

// TestAbortWeightByCause: abort samples carry cause-resolved weights.
func TestAbortWeightByCause(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 1,
		Periods: periods(0, 1, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	err := m.RunAll(func(th *machine.Thread) {
		l.Run(th, func() {
			th.Compute(500)
			th.Syscall("x")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()[0])
	if tot.AbortCount[htm.Sync] != 1 {
		t.Fatalf("sync abort samples = %d, want 1", tot.AbortCount[htm.Sync])
	}
	if tot.AbortWeight[htm.Sync] < 500 {
		t.Fatalf("sync abort weight = %d, want >= 500", tot.AbortWeight[htm.Sync])
	}
}

// TestCapacityWeightSplit: read- and write-capacity aborts are
// distinguished (Figure 9's "capacity abort read/write" metrics).
func TestCapacityWeightSplit(t *testing.T) {
	m := machine.New(machine.Config{Threads: 1, Periods: periods(0, 1, 0, 0, 0)})
	col := Attach(m)
	l := rtm.NewLock(m)
	geo := m.Config().Cache
	lines := geo.Sets*geo.Ways + 1
	big := m.Mem.AllocLines(lines)
	err := m.RunAll(func(th *machine.Thread) {
		l.Run(th, func() { // read-capacity abort: touch more lines than the L1 tracks
			for j := 0; j < lines; j++ {
				th.Load(big + mem.Addr(j*64))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()[0])
	if tot.AbortCount[htm.Capacity] == 0 || tot.CapReadW == 0 {
		t.Fatalf("capacity: count=%d readW=%d", tot.AbortCount[htm.Capacity], tot.CapReadW)
	}
	if tot.CapWriteW != 0 {
		t.Fatalf("write capacity weight = %d, want 0", tot.CapWriteW)
	}
}

// TestBeginInTxPseudoNode: in-transaction samples are attributed under
// the begin_in_tx pseudo-node, as in the paper's GUI.
func TestBeginInTxPseudoNode(t *testing.T) {
	m := machine.New(machine.Config{Threads: 1, Periods: periods(150, 0, 0, 0, 0)})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 200; i++ {
			l.Run(th, func() {
				th.Func("hot", func() {
					th.Compute(40)
					th.Add(a, 1)
				})
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	col.Profiles()[0].Tree.Walk(func(n *Node, _ int) {
		if n.Frame == BeginInTx {
			for _, c := range n.Children() {
				if c.Frame.Fn == "hot" {
					found = true
				}
			}
		}
	})
	if !found {
		t.Fatal("no begin_in_tx -> hot context in the profile")
	}
}

// TestPerThreadHistogram: per-thread profiles expose the commit/abort
// balance (§5's contention metrics).
func TestPerThreadHistogram(t *testing.T) {
	m := machine.New(machine.Config{Threads: 3, Seed: 30, Periods: periods(0, 1, 1, 0, 0)})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 50; i++ {
			l.Run(th, func() {
				v := th.Load(a)
				th.Compute(10)
				th.Store(a, v+1)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g := m.GroundTruth()
	for i, p := range col.Profiles() {
		if n := totals(p).CommitSamples; n != g.PerThreadCommits[i] {
			t.Errorf("thread %d: sampled commits %d, truth %d", i, n, g.PerThreadCommits[i])
		}
	}
}

// TestMemoryFootprintBounded: the collector's state stays small
// (paper: <5MB per thread; here far below).
func TestMemoryFootprintBounded(t *testing.T) {
	m := machine.New(machine.Config{Threads: 4, Seed: 2, Periods: periods(200, 5, 20, 100, 100)})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(64)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 300; i++ {
			l.Run(th, func() { th.Add(a.Offset(th.Rand().Intn(64)), 1) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp := col.MemoryFootprint(); fp > 4*5<<20 {
		t.Fatalf("collector footprint = %d bytes, want < 5MB/thread", fp)
	}
}

// TestSamplingRateInPaperBand: with default periods, a typical
// benchmark-sized run collects on the order of 10^1-10^3 cycles
// samples per thread (the paper's 50-200/s guidance, rescaled).
func TestSamplingRateInPaperBand(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 4, Seed: 9,
		Periods: pmu.DefaultPeriods(),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(4)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 300; i++ {
			l.Run(th, func() { th.Add(a.Offset(th.ID), 1) })
			th.Compute(300)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range col.Profiles() {
		tot := totals(p)
		if tot.W() < 3 || tot.W() > 2000 {
			t.Errorf("thread %d: %d cycles samples, outside the expected band", p.TID, tot.W())
		}
	}
}

// TestTruncatedAccounting: a transaction with call churn beyond the
// LBR depth must register truncated reconstructions.
func TestTruncatedAccounting(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 1, Seed: 1, LBRDepth: 4,
		Periods: periods(150, 2, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 150; i++ {
			l.Run(th, func() {
				// Sibling calls churn the 4-entry LBR well past capacity.
				for j := 0; j < 4; j++ {
					th.Func("leafwork", func() { th.Compute(10) })
				}
				th.Func("deep", func() {
					th.Compute(40)
					th.Add(a, 1)
				})
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if totals(col.Profiles()[0]).Truncated == 0 {
		t.Fatal("no truncated reconstructions with a 4-entry LBR")
	}
}

// TestInterruptAbortSamplesSeparated: profiler-induced aborts are
// tracked under the Interrupt cause and excluded from AppAborts.
func TestInterruptAbortSamplesSeparated(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 1, Seed: 2,
		Periods: periods(150, 1, 0, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 100; i++ {
			l.Run(th, func() {
				th.Compute(120)
				th.Add(a, 1)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()[0])
	if tot.AbortCount[htm.Interrupt] == 0 {
		t.Fatal("dense sampling produced no interrupt-abort samples")
	}
	if tot.AppAborts() != tot.AbortSamples-tot.AbortCount[htm.Interrupt] {
		t.Fatal("AppAborts does not exclude exactly the interrupt aborts")
	}
}

// TestConflictSourceSplit: conflicts with transactional peers and with
// the non-transactional fallback lock are distinguished (the POWER
// abort-granularity discussion, §10).
func TestConflictSourceSplit(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 4, Seed: 6,
		Periods: periods(0, 1, 1, 0, 0),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 60; i++ {
			l.Run(th, func() {
				v := th.Load(a)
				th.Compute(25)
				th.Store(a, v+1)
				if i%9 == 0 {
					th.Syscall("x") // forces fallbacks -> lock conflicts
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := totals(col.Profiles()...)
	if tot.ConflictTx == 0 {
		t.Error("no transactional conflicts recorded")
	}
	if tot.ConflictNonTx == 0 {
		t.Error("no non-transactional (lock) conflicts recorded")
	}
	if tot.ConflictTx+tot.ConflictNonTx != tot.AbortCount[htm.Conflict] {
		t.Errorf("split %d+%d != conflict count %d",
			tot.ConflictTx, tot.ConflictNonTx, tot.AbortCount[htm.Conflict])
	}
}

// TestEquationInvariants: the paper's Equations 1 and 2 hold exactly
// over sampled metrics: W = T + S and T = Ttx + Tfb + Twait + Toh
// (plus the stm and flush modes), at every context and in the totals.
func TestEquationInvariants(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 6, Seed: 14,
		Periods: periods(250, 4, 8, 400, 400),
	})
	col := Attach(m)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(2)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 120; i++ {
			l.Run(th, func() {
				v := th.Load(a)
				th.Compute(20)
				th.Store(a, v+1)
				if i%17 == 0 {
					th.Syscall("x")
				}
			})
			th.Compute(120)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range col.Profiles() {
		tot := totals(p)
		if tot.W() != tot.T()+tot.Time[rtm.ModeNone] {
			t.Fatalf("thread %d: W=%d != T=%d + S=%d (Equation 1 violated)",
				p.TID, tot.W(), tot.T(), tot.Time[rtm.ModeNone])
		}
		var parts uint64
		for md := rtm.ModeHTM; md < rtm.NumModes; md++ {
			if md.Base() == md {
				parts += tot.TimeIn(md)
			}
		}
		if parts != tot.T() {
			t.Fatalf("thread %d: base modes sum to %d != T=%d (Equation 2 violated): %v",
				p.TID, parts, tot.T(), tot.Time)
		}
		if tot.T() == 0 || tot.Time[rtm.ModeNone] == 0 {
			t.Fatalf("thread %d: degenerate profile %v", p.TID, tot.Time)
		}
		var tree [rtm.NumModes]uint64
		p.Tree.Walk(func(n *Node, _ int) {
			for md, v := range n.Data.Time {
				tree[md] += v
			}
		})
		for md, v := range tree {
			if v != tot.Time[md] {
				t.Errorf("thread %d: %v samples: tree sums to %d, totals say %d",
					p.TID, rtm.Mode(md), v, tot.Time[md])
			}
		}
	}
}

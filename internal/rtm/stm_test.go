package rtm

// Software-transaction slow path: undo-log mechanics, commit-time
// validation against racing writers, policy escalation, and the
// writer drain every lock acquisition performs.

import (
	"reflect"
	"testing"

	"txsampler/internal/machine"
	"txsampler/internal/mem"
)

// forceSlowPath returns a body wrapper whose hardware attempt always
// aborts persistently (a system call is Sync, non-retryable), so the
// critical section goes straight to the configured slow path.
func forceSlowPath(t *machine.Thread, body func()) func() {
	return func() {
		t.Syscall("stm_test")
		body()
	}
}

func TestSTMAbortRestoresPreTxWords(t *testing.T) {
	m := machine.New(machine.Config{Threads: 1, Seed: 1, Hybrid: machine.HybridStmFallback})
	l := NewLock(m)
	a := m.Mem.AllocLines(1)
	b := m.Mem.AllocLines(1)
	m.Mem.Store(a, 100)
	m.Mem.Store(b, 200)

	if err := m.RunAll(func(th *machine.Thread) {
		x := &stmTx{l: l, t: th}
		th.State = InCS | InSTM
		th.SetSoftTx(x)
		th.Store(a, 7)
		th.Store(b, 9)
		th.Store(a, 8) // second write to a: only the first logs undo
		th.SetSoftTx(nil)
		if got := th.Load(a); got != 8 {
			t.Errorf("eager write not visible: a = %d, want 8", got)
		}
		if !x.wrote || len(x.undo) != 2 {
			t.Errorf("write phase: wrote=%v undo=%d, want true/2", x.wrote, len(x.undo))
		}
		x.rollback()
		th.State = 0
		if got := th.Load(a); got != 100 {
			t.Errorf("rollback left a = %d, want 100", got)
		}
		if got := th.Load(b); got != 200 {
			t.Errorf("rollback left b = %d, want 200", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(l.stm.owner) != 0 {
		t.Errorf("rollback leaked %d word locks", len(l.stm.owner))
	}
	if l.stm.writers != 0 {
		t.Errorf("rollback left writer count %d", l.stm.writers)
	}
	if got := m.Mem.Load(l.stm.active); got != 0 {
		t.Errorf("active word %d after rollback, want 0", got)
	}
}

// TestSTMValidationDetectsRacingWriter runs a software transaction
// whose read races a plain store from another thread: the first
// attempt must fail validation, undo its eager write exactly once,
// and the retry must observe the new value.
func TestSTMValidationDetectsRacingWriter(t *testing.T) {
	m := machine.New(machine.Config{Threads: 2, Seed: 3, Hybrid: machine.HybridStmFallback})
	l := NewLock(m)
	x := m.Mem.AllocLines(1) // raced word
	y := m.Mem.AllocLines(1) // counter proving exactly-once
	z := m.Mem.AllocLines(1) // copy of the raced word as read

	bodies := []func(*machine.Thread){
		func(th *machine.Thread) {
			l.Run(th, forceSlowPath(th, func() {
				v := th.Load(x)
				th.Compute(5000) // hold the read window open
				th.Store(y, th.Load(y)+1)
				th.Store(z, v)
			}))
		},
		func(th *machine.Thread) {
			th.Compute(1000)
			th.Store(x, 42) // racing non-CS writer
		},
	}
	if err := m.Run(bodies...); err != nil {
		t.Fatal(err)
	}
	if l.Stats.StmAborts == 0 {
		t.Fatalf("racing writer not detected: %+v", l.Stats)
	}
	if l.Stats.StmCommits != 1 {
		t.Fatalf("StmCommits = %d, want 1 (%+v)", l.Stats.StmCommits, l.Stats)
	}
	if got := m.Mem.Load(y); got != 1 {
		t.Errorf("counter ran %d times, want exactly once (undo failed?)", got)
	}
	if got := m.Mem.Load(z); got != 42 {
		t.Errorf("retry read stale value %d, want 42", got)
	}
}

// TestSerializeOnConflictEscalates: with the serialize-on-conflict
// policy the first software-side conflict must take the global lock
// instead of retrying the STM.
func TestSerializeOnConflictEscalates(t *testing.T) {
	m := machine.New(machine.Config{Threads: 2, Seed: 3, Hybrid: machine.HybridSerializeOnConflict})
	l := NewLock(m)
	x := m.Mem.AllocLines(1)
	y := m.Mem.AllocLines(1)

	bodies := []func(*machine.Thread){
		func(th *machine.Thread) {
			l.Run(th, forceSlowPath(th, func() {
				v := th.Load(x)
				th.Compute(5000)
				th.Store(y, v+th.Load(y)+1)
			}))
		},
		func(th *machine.Thread) {
			th.Compute(1000)
			th.Store(x, 42)
		},
	}
	if err := m.Run(bodies...); err != nil {
		t.Fatal(err)
	}
	if l.Stats.StmAborts != 1 || l.Stats.StmCommits != 0 {
		t.Fatalf("expected exactly one STM abort then escalation: %+v", l.Stats)
	}
	if l.Stats.StmFallbacks != 1 || l.Stats.Fallbacks != 1 {
		t.Fatalf("conflict did not serialize through the lock: %+v", l.Stats)
	}
	if got := m.Mem.Load(y); got != 43 {
		t.Errorf("lock path result %d, want 43", got)
	}
}

// TestSTMCommitsUnderContention drives all threads through the STM
// slow path on a shared counter and requires exactly-once semantics
// plus a complete Stats ledger.
func TestSTMCommitsUnderContention(t *testing.T) {
	const threads, iters = 4, 50
	m := machine.New(machine.Config{Threads: threads, Seed: 7, Hybrid: machine.HybridStmFallback})
	l := NewLock(m)
	ctr := m.Mem.AllocLines(1)
	if err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < iters; i++ {
			l.Run(th, forceSlowPath(th, func() {
				th.Add(ctr, 1)
				th.Compute(20)
			}))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(ctr); got != threads*iters {
		t.Fatalf("counter = %d, want %d", got, threads*iters)
	}
	total := l.Stats.Commits + l.Stats.Fallbacks + l.Stats.StmCommits
	if total != threads*iters {
		t.Fatalf("CS ledger %d != %d: %+v", total, threads*iters, l.Stats)
	}
	if l.Stats.StmCommits == 0 {
		t.Fatalf("no software commits on a forced slow path: %+v", l.Stats)
	}
	if len(l.stm.owner) != 0 || l.stm.writers != 0 {
		t.Fatalf("STM metadata leaked: owner=%d writers=%d", len(l.stm.owner), l.stm.writers)
	}
	if got := m.Mem.Load(l.stm.active); got != 0 {
		t.Fatalf("active word %d after run, want 0", got)
	}
}

// TestHybridRunsAreSeedDeterministic: same seed, same policy →
// byte-identical ground truth and stats.
func TestHybridRunsAreSeedDeterministic(t *testing.T) {
	for _, h := range hybridPolicies {
		run := func() (mem.Word, Stats, machine.GroundTruth) {
			m := machine.New(machine.Config{Threads: 4, Seed: 13, Hybrid: h})
			l := NewLock(m)
			ctr := m.Mem.AllocLines(1)
			if err := m.RunAll(func(th *machine.Thread) {
				for i := 0; i < 40; i++ {
					l.Run(th, func() {
						th.Add(ctr, 1)
						th.Compute(25)
					})
				}
			}); err != nil {
				t.Fatal(err)
			}
			return m.Mem.Load(ctr), l.Stats, m.GroundTruth()
		}
		v1, s1, g1 := run()
		v2, s2, g2 := run()
		if v1 != v2 || v1 != 160 {
			t.Fatalf("%v: counters %d vs %d, want 160", h, v1, v2)
		}
		if s1.Commits != s2.Commits || s1.StmCommits != s2.StmCommits ||
			s1.Fallbacks != s2.Fallbacks || s1.StmAborts != s2.StmAborts {
			t.Fatalf("%v: stats diverged: %+v vs %+v", h, s1, s2)
		}
		if g1.Commits != g2.Commits || len(g1.Aborts) != len(g2.Aborts) {
			t.Fatalf("%v: ground truth diverged: %+v vs %+v", h, g1, g2)
		}
		for c, n := range g1.Aborts {
			if g2.Aborts[c] != n {
				t.Fatalf("%v: abort cause %v diverged: %d vs %d", h, c, n, g2.Aborts[c])
			}
		}
	}
}

// TestHybridLockStatsQuantumInvariant: lock statistics are write-only
// counters that threads update outside Exclusive sections, so they
// must not depend on where the schedule gates. Two elided locks under
// every hybrid policy, eliding and plain, and a RunHLE loop must count
// the same outcomes at the per-op quantum 1 as at the default.
func TestHybridLockStatsQuantumInvariant(t *testing.T) {
	run := func(h machine.HybridPolicy, el machine.ElisionMode, quantum int) [3]Stats {
		m := machine.New(machine.Config{Threads: 4, Seed: 9, StartSkew: 256, Hybrid: h, Elision: el, Quantum: quantum})
		locks := [2]*ElidedLock{NewElidedLock(m, "a"), NewElidedLock(m, "b")}
		hle := NewLock(m)
		// One counter per lock: a lock's sections serialize only
		// against sections of the same lock.
		ctrs := [3]mem.Addr{m.Mem.AllocLines(1), m.Mem.AllocLines(1), m.Mem.AllocLines(1)}
		if err := m.RunAll(func(th *machine.Thread) {
			for i := 0; i < 24; i++ {
				l, ctr := locks[(th.ID+i)%2], ctrs[(th.ID+i)%2]
				switch i % 4 {
				case 0: // contended add
					l.Run(th, func() { th.Add(ctr, 1) })
				case 1: // syscall-poisoned: down the ladder
					l.Run(th, forceSlowPath(th, func() { th.Add(ctr, 1) }))
				case 2: // non-speculative: the inner lock held outright
					l.Inner().RunLocked(th, func() { th.Add(ctr, 1) })
				default:
					hle.RunHLE(th, func() {
						th.Add(ctrs[2], 1)
						th.Compute(20)
					})
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got := m.Mem.Load(ctrs[0]) + m.Mem.Load(ctrs[1]) + m.Mem.Load(ctrs[2]); got != 4*24 {
			t.Fatalf("counters sum to %d, want %d", got, 4*24)
		}
		return [3]Stats{locks[0].Inner().Stats, locks[1].Inner().Stats, hle.Stats}
	}
	for p := range machine.HybridPolicies() {
		h := machine.HybridPolicy(p)
		for _, el := range []machine.ElisionMode{machine.ElisionOff, machine.ElisionOn} {
			base, oracle := run(h, el, 0), run(h, el, 1)
			if !reflect.DeepEqual(base, oracle) {
				t.Errorf("%v elision=%v: default quantum %+v, quantum 1 %+v", h, el, base, oracle)
			}
			if hle := base[2]; hle.Commits+hle.Fallbacks != 4*6 {
				t.Errorf("%v elision=%v: HLE ended %d sections, want %d", h, el, hle.Commits+hle.Fallbacks, 4*6)
			}
		}
	}
}

// hybridPolicies lists the policies that run the STM slow path.
var hybridPolicies = []machine.HybridPolicy{
	machine.HybridStmFallback, machine.HybridSerializeOnConflict, machine.HybridSandboxed,
}

// TestRunLockedDrainsSoftwareWriters: holding the lock must exclude
// software writers mid write phase, whose eager writes are not yet
// validated. Writers forced onto the STM path pass a shared word
// through an odd value inside each section; RunLocked readers, which
// hold the lock outright, must never see it odd.
func TestRunLockedDrainsSoftwareWriters(t *testing.T) {
	const threads, iters = 6, 40
	for _, h := range hybridPolicies {
		for seed := int64(1); seed <= 4; seed++ {
			m := machine.New(machine.Config{Threads: threads, Seed: seed, Hybrid: h})
			l := NewLock(m)
			w := m.Mem.AllocLines(1)
			reads, odd := 0, 0
			if err := m.RunAll(func(th *machine.Thread) {
				for i := 0; i < iters; i++ {
					if th.ID%2 == 0 {
						l.Run(th, forceSlowPath(th, func() {
							th.Add(w, 1)
							th.Compute(200)
							th.Add(w, 1)
						}))
					} else {
						l.RunLocked(th, func() {
							reads++
							if th.Load(w)%2 != 0 {
								odd++
							}
						})
					}
					th.Compute(50 + th.Rand().Intn(200))
				}
			}); err != nil {
				t.Fatal(err)
			}
			if odd != 0 {
				t.Errorf("%v seed %d: %d of %d locked reads saw a writer mid-section", h, seed, odd, reads)
			}
			if reads != threads/2*iters {
				t.Errorf("%v seed %d: %d locked reads, want %d", h, seed, reads, threads/2*iters)
			}
			if got, want := m.Mem.Load(w), mem.Word(2*threads/2*iters); got != want {
				t.Errorf("%v seed %d: word = %d, want %d", h, seed, got, want)
			}
			if l.Stats.StmCommits == 0 {
				t.Errorf("%v seed %d: no software commits on a forced slow path: %+v", h, seed, l.Stats)
			}
		}
	}
}

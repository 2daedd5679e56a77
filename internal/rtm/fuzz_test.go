package rtm

import (
	"fmt"
	"reflect"
	"testing"

	"txsampler/internal/machine"
	"txsampler/internal/mem"
)

// FuzzElisionPolicy drives an arbitrary critical-section script over
// elidable locks across the whole policy space — thread count, seed,
// hybrid policy, retry budget, elision on/off — and asserts the
// elision runtime's total contract: every section serializes exactly
// (shared and private counters come out arithmetically right), the
// mode word inside a section always classifies to a legal mode for
// the path taken, stats conserve Run sections (each ends exactly one
// way — a double count or a lost section breaks the total), no
// lock word or state word leaks past the run, and the whole machine
// is a deterministic function of the input (identical fingerprints
// on replay) that the per-op oracle (Quantum 1, every spin-wait
// iteration literal) reproduces — clocks, lock stats and memory — under
// the default schedule, whose waiters sleep. Deadlock surfaces as a
// fuzzer timeout.
//
// Script encoding: data[0] threads, data[1] seed, data[2] hybrid
// policy, data[3] elision mode, data[4] retry policy; data[5:] is the
// op list every thread executes (low bits pick the op shape, bit 4
// picks which of two locks).
func FuzzElisionPolicy(f *testing.F) {
	f.Add([]byte{1, 9, 1, 1, 12, 0, 1, 2, 3, 4, 5, 16, 17, 19, 20})
	f.Add([]byte{2, 5, 0, 1, 3, 3, 3, 3, 3, 0, 3, 3})  // syscall-poisoned, lock-only
	f.Add([]byte{1, 2, 2, 0, 7, 0, 1, 2, 4, 0})        // elision off
	f.Add([]byte{3, 1, 3, 1, 4, 2, 2, 0, 1, 3, 4, 21}) // sandboxed slow path
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 4, 0, 0, 9, 4, 4, 0, 4, 20, 4, 0, 4}) // five threads queue on plain locks: waiters sleep

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		threads := 2 + int(data[0])%4
		seed := int64(data[1])
		pol := machine.HybridPolicy(int(data[2]) % len(machine.HybridPolicies()))
		elide := data[3]%2 == 1
		emode, lockedMode := machine.ElisionOff, ModeLock
		if elide {
			emode, lockedMode = machine.ElisionOn, ModeElidedLock
		}
		policy := Policy{
			MaxRetries:      int(data[4]) % 8,
			RetryOnCapacity: data[4]&8 != 0,
			BackoffBase:     int(data[4]) % 60,
		}
		ops := data[5:]
		if len(ops) > 24 {
			ops = ops[:24]
		}

		// The expected result is computable from the script alone:
		// that is the serializability oracle. Shared state is per lock
		// — data shared across two different locks without common
		// protection is outside the programming model (a lock's
		// sections only serialize against sections of the same lock).
		var privateAdds uint64
		sharedAdds := [2]uint64{}
		sections := [2]uint64{}
		for _, op := range ops {
			kind := op % 6
			lk := (op >> 4) & 1
			switch kind {
			case 0, 4:
				sharedAdds[lk]++
			case 1, 3:
				privateAdds++
			}
			if kind <= 3 { // RunLocked (4) counts no Stats
				sections[lk]++
			}
		}

		type outcome struct {
			fingerprint, elapsed, total uint64
			stats                       [2]Stats
		}
		run := func(quantum int) outcome {
			m := machine.New(machine.Config{
				Threads: threads, Seed: seed, StartSkew: 256,
				Hybrid: pol, Elision: emode, Quantum: quantum,
			})
			locks := [2]*ElidedLock{
				NewElidedLock(m, "fuzz_a"),
				NewElidedLock(m, "fuzz_b"),
			}
			locks[0].Inner().Policy = policy
			locks[1].Inner().Policy = policy
			shared := [2]mem.Addr{m.Mem.AllocLines(1), m.Mem.AllocLines(1)}
			private := m.Mem.AllocLines(threads)
			var violation string
			fail := func(msg string) {
				if violation == "" {
					violation = msg
				}
			}
			checkMode := func(th *machine.Thread) {
				mode := ModeOf(th.State, IsInHTM(th.State))
				if elide {
					if mode != ModeElidedHTM && mode != ModeElidedSTM && mode != ModeElidedLock {
						fail(fmt.Sprintf("elided section classified as %v", mode))
					}
				} else if mode != ModeLock {
					fail(fmt.Sprintf("plain section classified as %v", mode))
				}
			}
			if err := m.RunAll(func(th *machine.Thread) {
				ctr := private.Offset(th.ID * mem.WordsPerLine)
				for _, op := range ops {
					lk := (op >> 4) & 1
					l, sh := locks[lk], shared[lk]
					switch op % 6 {
					case 0: // short shared add: the CAS-able shape
						l.Run(th, func() {
							checkMode(th)
							th.Add(sh, 1)
						})
					case 1: // disjoint private add: elision-friendly
						l.Run(th, func() {
							checkMode(th)
							th.Add(ctr, 1)
						})
					case 2: // read-only scan
						l.Run(th, func() {
							checkMode(th)
							th.Load(sh)
							th.Compute(10)
						})
					case 3: // syscall-poisoned: forces the ladder down
						l.Run(th, func() {
							checkMode(th)
							th.Add(ctr, 1)
							th.Syscall("fuzz_serial")
						})
					case 4: // non-speculative: the inner lock held outright
						l.Inner().RunLocked(th, func() {
							if mode := ModeOf(th.State, false); mode != lockedMode {
								fail(fmt.Sprintf("held lock classified as %v", mode))
							}
							th.Add(sh, 1)
						})
					default: // no section
						th.Compute(12)
					}
					if th.State != 0 {
						fail(fmt.Sprintf("state word %#x leaked past a section", th.State))
					}
				}
			}); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if violation != "" {
				t.Fatal(violation)
			}
			for i, sh := range shared {
				if got, want := m.Mem.Load(sh), uint64(threads)*sharedAdds[i]; got != want {
					t.Fatalf("shared counter %d = %d, want %d", i, got, want)
				}
			}
			for id := 0; id < threads; id++ {
				if got := m.Mem.Load(private.Offset(id * mem.WordsPerLine)); got != privateAdds {
					t.Fatalf("thread %d private counter = %d, want %d", id, got, privateAdds)
				}
			}
			for i, l := range locks {
				if w := m.Mem.Load(l.Inner().Addr); w != 0 {
					t.Fatalf("lock %d word = %d after run: leaked acquisition", i, w)
				}
				st := l.Inner().Stats
				ended := st.Commits + st.StmCommits + st.Fallbacks
				if want := uint64(threads) * sections[i]; ended != want {
					t.Fatalf("lock %d ended %d sections (commits=%d stm=%d fallbacks=%d), want %d",
						i, ended, st.Commits, st.StmCommits, st.Fallbacks, want)
				}
			}
			return outcome{
				fingerprint: m.Mem.Fingerprint(), elapsed: m.Elapsed(), total: m.TotalCycles(),
				stats: [2]Stats{locks[0].Inner().Stats, locks[1].Inner().Stats},
			}
		}

		a := run(0)
		if b := run(0); !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic: %+v vs %+v for one input", a, b)
		}
		if o := run(1); !reflect.DeepEqual(a, o) {
			t.Fatalf("default schedule %+v, per-op oracle %+v", a, o)
		}
	})
}

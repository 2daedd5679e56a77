package txsampler_test

// Persistent-memory tier suite: crash injection at every crash point,
// under every hybrid policy and quantum setting, must converge to the
// exact final memory a crash-free run produces — validated by the
// workload's own Check and byte-identically via mem.Fingerprint on
// both the volatile and the persist-domain images.

import (
	"bytes"
	"fmt"
	"testing"

	"txsampler"
	"txsampler/internal/faults"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/rtm"
)

const pmemTestThreads = 4

// runPmem executes a pmem workload with the persistent tier enabled
// under the given crash plan, runs the workload's Check, and returns
// the volatile and persist-domain fingerprints plus the crash stats.
func runPmem(t *testing.T, w *htmbench.Workload, seed int64, pol machine.HybridPolicy, quantum int, plan faults.Plan) (vol, img uint64, stats pmem.CrashStats) {
	t.Helper()
	m := machine.New(machine.Config{
		Threads: pmemTestThreads, Cache: txsampler.BenchCache(),
		Seed: seed, StartSkew: 1024, Hybrid: pol, Quantum: quantum,
		Faults: plan, Pmem: pmem.Config{Enabled: true},
	})
	inst := w.BuildInstance(m, nil)
	if err := m.Run(inst.Bodies...); err != nil {
		t.Fatalf("%s [%v q=%d %s]: %v", w.Name, pol, quantum, plan, err)
	}
	if err := inst.Check(m); err != nil {
		t.Fatalf("%s [%v q=%d %s]: result check failed: %v", w.Name, pol, quantum, plan, err)
	}
	d := m.Pmem()
	return m.Mem.Fingerprint(), d.Fingerprint(), d.Stats()
}

func pmemWorkloads(t *testing.T) []*htmbench.Workload {
	t.Helper()
	var out []*htmbench.Workload
	for _, name := range []string{"pmem/kv", "pmem/log"} {
		w, err := htmbench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestPmemCrashRecoveryConvergence is the tentpole invariant: a run
// with crashes injected at any crash point, under any hybrid policy
// and any scheduler quantum, recovers and re-executes to the same
// final volatile memory AND the same persist-domain image as a
// crash-free run.
func TestPmemCrashRecoveryConvergence(t *testing.T) {
	const seed = 7
	for _, w := range pmemWorkloads(t) {
		for _, pol := range allPolicies() {
			cleanVol, cleanImg, cleanStats := runPmem(t, w, seed, pol, 0, faults.Plan{})
			if cleanStats.Crashes != 0 {
				t.Fatalf("%s [%v]: crash-free run injected %d crashes", w.Name, pol, cleanStats.Crashes)
			}
			if cleanStats.Commits == 0 {
				t.Fatalf("%s [%v]: no durable commits in a pmem workload", w.Name, pol)
			}
			for _, point := range faults.PmemCrashPoints {
				for _, quantum := range []int{0, 1} {
					name := fmt.Sprintf("%s/%v/%s/q%d", w.Name, pol, point, quantum)
					t.Run(name, func(t *testing.T) {
						plan := faults.Plan{PmemCrashPoint: point, PmemCrashEvery: 5}
						vol, img, stats := runPmem(t, w, seed, pol, quantum, plan)
						if stats.Crashes == 0 {
							t.Fatalf("crash storm fired no crashes (stats %+v)", stats)
						}
						if vol != cleanVol {
							t.Errorf("volatile memory diverged after recovery: %#x vs clean %#x", vol, cleanVol)
						}
						if img != cleanImg {
							t.Errorf("persist image diverged after recovery: %#x vs clean %#x", img, cleanImg)
						}
						if point == faults.PmemCrashTornTail && stats.TornTails == 0 {
							t.Errorf("torn-tail crashes recorded no torn tails: %+v", stats)
						}
						if point == faults.PmemCrashAfterCommit && stats.RolledBack != 0 {
							t.Errorf("after-commit crashes rolled back %d entries", stats.RolledBack)
						}
						if point == faults.PmemCrashBeforeFlush && stats.RolledBack == 0 {
							t.Errorf("before-flush crashes rolled nothing back: %+v", stats)
						}
					})
				}
			}
		}
	}
}

// TestPmemDisabledMatchesEnabled: the persist tier only adds cycle
// costs and durability bookkeeping — it never changes what the program
// computes. The final volatile memory with the tier enabled must equal
// a plain run's.
func TestPmemDisabledMatchesEnabled(t *testing.T) {
	for _, w := range pmemWorkloads(t) {
		m := machine.New(machine.Config{
			Threads: pmemTestThreads, Cache: txsampler.BenchCache(),
			Seed: 7, StartSkew: 1024,
		})
		inst := w.BuildInstance(m, nil)
		if err := m.Run(inst.Bodies...); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := inst.Check(m); err != nil {
			t.Fatalf("%s (pmem disabled): %v", w.Name, err)
		}
		plain := m.Mem.Fingerprint()
		vol, _, _ := runPmem(t, w, 7, machine.HybridLockOnly, 0, faults.Plan{})
		if vol != plain {
			t.Errorf("%s: enabling the pmem tier changed the computed result (%#x vs %#x)", w.Name, vol, plain)
		}
	}
}

// TestPmemProfileAttribution: a profiled pmem run classifies samples
// into the persistence-stall bucket and renders the pmem stanza with
// flush-site attribution.
func TestPmemProfileAttribution(t *testing.T) {
	res, err := txsampler.Run("pmem/kv", txsampler.Options{
		Threads: pmemTestThreads, Seed: 7, Profile: true,
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
		Threads: pmemTestThreads, Seed: 7, Profile: true,
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

package txsampler_test

// Chaos suite: every fault-injection regime, run end to end through
// the public API, must (a) never crash or hang, (b) be byte-identical
// across runs with the same seed, under the default schedule and the
// per-op oracle (Quantum=1) alike, (c) leave the profiler's
// classification within 10 points of the fault-free baseline, and
// (d) flag the profile as degraded exactly when faults actually fire.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/pmu"
	"txsampler/internal/profile"
)

const (
	chaosWorkload = "micro/mixed"
	chaosThreads  = 4
	chaosSeed     = 21
)

// chaosPeriods samples far more densely than DefaultPeriods so the
// classification fractions carry thousands of samples: the ±10-point
// tolerance then measures fault-induced bias, not sampling noise.
func chaosPeriods() pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = 400
	p[pmu.TxAbort] = 4
	p[pmu.TxCommit] = 8
	p[pmu.Loads] = 500
	p[pmu.Stores] = 500
	return p
}

func chaosRun(t *testing.T, plan faults.Plan) *txsampler.Result {
	t.Helper()
	return chaosRunQuantum(t, plan, 0)
}

// chaosRunQuantum is chaosRun under the given scheduler quantum.
func chaosRunQuantum(t *testing.T, plan faults.Plan, quantum int) *txsampler.Result {
	t.Helper()
	res, err := txsampler.Run(chaosWorkload, txsampler.Options{
		Threads: chaosThreads, Seed: chaosSeed, Profile: true, Faults: plan,
		Periods: chaosPeriods(), Quantum: quantum,
	})
	if err != nil {
		t.Fatalf("plan %q: %v", plan, err)
	}
	return res
}

// chaosRunPmem is chaosRun against a persistent workload with the pmem
// tier enabled — the regime the pmem crash presets need to fire in.
func chaosRunPmem(t *testing.T, plan faults.Plan) *txsampler.Result {
	t.Helper()
	res, err := txsampler.Run("pmem/kv", txsampler.Options{
		Threads: chaosThreads, Seed: chaosSeed, Profile: true, Faults: plan,
		Periods: chaosPeriods(), Pmem: pmem.Config{Enabled: true},
	})
	if err != nil {
		t.Fatalf("plan %q: %v", plan, err)
	}
	return res
}

func serialize(t *testing.T, r *analyzer.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.FromReport(r).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChaosRegimes(t *testing.T) {
	clean := chaosRun(t, faults.Plan{})
	if got := clean.Report.Quality.Degraded(); got != 0 {
		t.Fatalf("fault-free run reports degradation: %d (%+v)", got, clean.Report.Quality)
	}
	cTx, cStm, cFb, cWait, cOh, cPersist := clean.Report.TimeShares()
	cleanRcs := clean.Report.Rcs()
	// The pmem crash presets need a persistent workload with the pmem
	// tier enabled; their baseline is a crash-free pmem run.
	cleanPmem := chaosRunPmem(t, faults.Plan{})
	if got := cleanPmem.Report.Quality.Degraded(); got != 0 {
		t.Fatalf("crash-free pmem run reports degradation: %d (%+v)", got, cleanPmem.Report.Quality)
	}
	pTx, pStm, pFb, pWait, pOh, pPersist := cleanPmem.Report.TimeShares()
	cleanPmemRcs := cleanPmem.Report.Rcs()

	for _, name := range faults.PresetNames() {
		plan := faults.Presets[name]
		if faults.PmemPreset(name) {
			continue // covered by the pmem regime loop below
		}
		t.Run(name, func(t *testing.T) {
			// (a) No crash, no hang; the committed workload result is
			// still validated by the workload's own Check.
			res := chaosRun(t, plan)

			// (d) The profile must say it is degraded, and the
			// machine-side stats must show which regime fired.
			q := res.Report.Quality
			if q.Degraded() == 0 {
				t.Fatalf("faults injected but Degraded() = 0: %+v", q)
			}
			if q.Injected.Total() == 0 {
				t.Fatalf("plan %s fired no injector events", name)
			}

			// (b) Same seed, same plan: byte-identical profile, also
			// under the per-op oracle schedule.
			want := serialize(t, res.Report)
			for _, quantum := range []int{0, 1} {
				again := chaosRunQuantum(t, plan, quantum)
				if !bytes.Equal(want, serialize(t, again.Report)) {
					t.Fatalf("quantum %d: same seed produced a different profile under injection", quantum)
				}
			}

			// (c) Classification stays within 10 points of baseline:
			// ambient faults may cost samples but must not reshuffle
			// where the profiler says the time went.
			tx, stm, fb, wait, oh, persist := res.Report.TimeShares()
			for _, d := range []struct {
				name      string
				got, want float64
			}{
				{"r_cs", res.Report.Rcs(), cleanRcs},
				{"tx-share", tx, cTx},
				{"stm-share", stm, cStm},
				{"fallback-share", fb, cFb},
				{"wait-share", wait, cWait},
				{"overhead-share", oh, cOh},
				{"persist-share", persist, cPersist},
			} {
				if diff := math.Abs(d.got - d.want); diff > 0.10 {
					t.Errorf("%s drifted %.3f (faulted %.3f vs clean %.3f)", d.name, diff, d.got, d.want)
				}
			}
		})
	}

	// Pmem regime: crash-storm presets against a persistent workload
	// under every hybrid policy — no crash/hang, recovery converges (the
	// workload Check pins every durable word), degradation is flagged,
	// and the profile stays reproducible under both schedules.
	for _, name := range faults.PresetNames() {
		if !faults.PmemPreset(name) {
			continue
		}
		plan := faults.Presets[name]
		for _, pol := range allPolicies() {
			t.Run(fmt.Sprintf("%s/%v", name, pol), func(t *testing.T) {
				res, err := txsampler.Run("pmem/kv", txsampler.Options{
					Threads: chaosThreads, Seed: chaosSeed, Profile: true,
					Faults: plan, Periods: chaosPeriods(), Hybrid: pol,
					Pmem: pmem.Config{Enabled: true},
				})
				if err != nil {
					t.Fatalf("plan %q: %v", plan, err)
				}
				q := res.Report.Quality
				if q.Degraded() == 0 {
					t.Fatalf("crashes injected but Degraded() = 0: %+v", q)
				}
				if q.Injected.PmemCrashes == 0 {
					t.Fatalf("plan %s fired no pmem crashes: %+v", name, q.Injected)
				}
				want := serialize(t, res.Report)
				for _, quantum := range []int{0, 1} {
					again, err := txsampler.Run("pmem/kv", txsampler.Options{
						Threads: chaosThreads, Seed: chaosSeed, Profile: true,
						Faults: plan, Periods: chaosPeriods(), Hybrid: pol,
						Pmem: pmem.Config{Enabled: true}, Quantum: quantum,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, serialize(t, again.Report)) {
						t.Fatalf("quantum %d: same seed produced a different profile under crash injection", quantum)
					}
				}
				if pol != machine.HybridLockOnly {
					return // drift is judged against the lock-only baseline
				}
				tx, stm, fb, wait, oh, persist := res.Report.TimeShares()
				for _, d := range []struct {
					name      string
					got, want float64
				}{
					{"r_cs", res.Report.Rcs(), cleanPmemRcs},
					{"tx-share", tx, pTx},
					{"stm-share", stm, pStm},
					{"fallback-share", fb, pFb},
					{"wait-share", wait, pWait},
					{"overhead-share", oh, pOh},
					{"persist-share", persist, pPersist},
				} {
					if diff := math.Abs(d.got - d.want); diff > 0.10 {
						t.Errorf("%s drifted %.3f (crashed %.3f vs clean %.3f)", d.name, diff, d.got, d.want)
					}
				}
			})
		}
	}
}

func TestChaosQualityRoundTripsThroughDatabase(t *testing.T) {
	res := chaosRun(t, faults.Presets["drops"])
	db := profile.FromReport(res.Report)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := profile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Report().Quality != res.Report.Quality {
		t.Fatalf("quality lost in round trip: %+v vs %+v", back.Report().Quality, res.Report.Quality)
	}
	if back.Report().Quality.Degraded() == 0 {
		t.Fatal("loaded profile no longer flagged degraded")
	}
}

func TestChaosRenderMentionsDegradation(t *testing.T) {
	res := chaosRun(t, faults.Presets["spurious"])
	var buf bytes.Buffer
	res.Report.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("DEGRADED")) {
		t.Fatalf("report omits degradation warning:\n%s", &buf)
	}
	clean := chaosRun(t, faults.Plan{})
	buf.Reset()
	clean.Report.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("data quality: clean")) {
		t.Fatalf("clean report missing quality line:\n%s", &buf)
	}
}

func TestChaosInvalidPlanIsCleanError(t *testing.T) {
	_, err := txsampler.Run(chaosWorkload, txsampler.Options{
		Threads: chaosThreads, Seed: 1, Profile: true,
		Faults: faults.Plan{SpuriousAbortRate: 2},
	})
	if err == nil {
		t.Fatal("invalid fault plan accepted")
	}
	if want := "spurious"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the bad field", err)
	}
}

// Example of reading a chaos profile's quality programmatically.
func ExampleResult_quality() {
	res, err := txsampler.Run("micro/low-abort", txsampler.Options{
		Threads: 2, Seed: 1, Profile: true,
		Faults: faults.Plan{SampleDropRate: 0.5},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("degraded:", res.Report.Quality.Degraded() > 0)
	// Output:
	// degraded: true
}

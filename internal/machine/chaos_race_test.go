package machine_test

// Race stress: the machine resumes one thread coroutine at a time, so
// the baton orders all simulated-thread state, including the rtm
// lock's statistics, which its threads update outside Exclusive. With
// 8 thread coroutines, fault storms, PMU interrupts, and a live
// collector, `go test -race` must stay silent and the workload result
// must stay correct.

import (
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

func TestChaosStormRaceStress(t *testing.T) {
	const (
		threads = 8
		perThr  = 150
	)
	plan := faults.Presets["all"]
	cfg := machine.Config{
		Threads: threads,
		Seed:    7,
		Periods: pmu.Periods{pmu.Cycles: 500, pmu.TxAbort: 3, pmu.TxCommit: 7, pmu.Loads: 97, pmu.Stores: 89},
		Faults:  plan,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg)
	col := core.Attach(m)
	lock := rtm.NewLock(m)
	ctr := m.Mem.AllocLines(1)

	if err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < perThr; i++ {
			lock.Run(th, func() {
				th.Add(ctr, 1)
				th.Compute(20)
			})
		}
	}); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}

	if got, want := m.Mem.Load(ctr), mem.Word(threads*perThr); got != want {
		t.Fatalf("counter = %d, want %d: faults corrupted committed state", got, want)
	}
	if m.FaultStats().Total() == 0 {
		t.Fatal("storm plan injected nothing")
	}
	// The collector survived malformed input; its quality counters plus
	// machine stats must show the degradation.
	q := col.Quality()
	q.Injected = m.FaultStats()
	if q.Degraded() == 0 {
		t.Fatal("Degraded() = 0 under fault storm")
	}
}

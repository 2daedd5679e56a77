package core

import (
	"testing"

	"txsampler/internal/machine"
	"txsampler/internal/rtm"
)

// TestAccuracyTxSamplerBeatsNaive runs a workload with deep
// in-transaction call chains and verifies the §9 claim: TxSampler's
// LBR-based reconstruction recovers in-transaction contexts a
// conventional profiler cannot (the rolled-back stack misses every
// frame below the transaction begin).
func TestAccuracyTxSamplerBeatsNaive(t *testing.T) {
	m := machine.New(machine.Config{
		Threads: 4, Seed: 5,
		Periods: periods(300, 2, 8, 0, 0),
	})
	col := NewCollector(4, m.Config().Periods)
	probe := NewAccuracyProbe(col)
	m.SetHandler(probe)
	l := rtm.NewLock(m)
	shared := m.Mem.AllocWords(2)
	err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 80; i++ {
			l.Run(th, func() {
				th.Func("outer", func() {
					th.Func("inner", func() {
						th.Compute(30)
						th.Add(shared.Offset(i%2), 1)
					})
				})
			})
			th.Compute(40)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a := probe.Accuracy
	if a.InTx < 20 {
		t.Fatalf("only %d in-tx samples; raise sampling", a.InTx)
	}
	if a.PathDetected != a.InTx {
		t.Errorf("LBR abort bit detected %d of %d in-tx samples", a.PathDetected, a.InTx)
	}
	txRate := float64(a.TxSamplerCorrect) / float64(a.InTx)
	naiveRate := float64(a.NaiveCorrect) / float64(a.InTx)
	if txRate < 0.9 {
		t.Errorf("TxSampler in-tx attribution = %.0f%%, want >= 90%%", 100*txRate)
	}
	// The naive profiler only gets samples right when they land at
	// the transaction's top level (no frames below tm_begin); with
	// outer/inner nesting that is rare.
	if naiveRate >= txRate {
		t.Errorf("naive attribution %.0f%% >= TxSampler %.0f%%: comparison broken", 100*naiveRate, 100*txRate)
	}
	if naiveRate > 0.5 {
		t.Errorf("naive attribution %.0f%%: deep contexts should be unrecoverable from the rolled-back stack", 100*naiveRate)
	}
}

// TestAccuracyProbeForwardsSamples: wrapping must not lose samples.
func TestAccuracyProbeForwardsSamples(t *testing.T) {
	m := machine.New(machine.Config{Threads: 2, Seed: 1, Periods: periods(200, 1, 1, 0, 0)})
	col := NewCollector(2, m.Config().Periods)
	probe := NewAccuracyProbe(col)
	m.SetHandler(probe)
	l := rtm.NewLock(m)
	a := m.Mem.AllocWords(1)
	if err := m.RunAll(func(th *machine.Thread) {
		for i := 0; i < 40; i++ {
			l.Run(th, func() { th.Add(a, 1) })
			th.Compute(30)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var forwarded uint64
	for _, p := range col.Profiles() {
		forwarded += p.Samples
	}
	if forwarded != probe.Accuracy.Total {
		t.Fatalf("probe saw %d samples, collector received %d", probe.Accuracy.Total, forwarded)
	}
	if probe.Accuracy.Total == 0 {
		t.Fatal("no samples at all")
	}
}

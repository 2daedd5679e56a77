package core

// Benchmarks for the collector's per-sample hot path: calling-context
// derivation (including the Figure 3 LBR reconstruction for
// in-transaction samples) and full HandleSample dispatch. Profiled
// runs deliver thousands of samples, most of them on a handful of hot
// call paths, so these paths dominate collector cost.

import (
	"testing"

	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

// benchInTxSample builds a cycles sample that aborted a transaction:
// rolled-back stack, LBR with the abort branch on top and the
// in-transaction call suffix behind it.
func benchInTxSample() *machine.Sample {
	return &machine.Sample{
		Event: pmu.Cycles,
		TID:   0,
		Time:  1000,
		IP:    lbr.IP{Fn: "leaf", Site: "l3"},
		State: rtm.InCS | rtm.InOverhead,
		Stack: []lbr.IP{{Fn: "thread_root"}, {Fn: "main_loop"}, {Fn: "tm_begin"}},
		LBR: []lbr.Entry{
			{Kind: lbr.KindAbort, From: lbr.IP{Fn: "leaf", Site: "l3"}, To: lbr.IP{Fn: "tm_begin"}, Abort: true, InTSX: true},
			{Kind: lbr.KindCall, From: lbr.IP{Fn: "mid", Site: "c2"}, To: lbr.IP{Fn: "leaf"}, InTSX: true},
			{Kind: lbr.KindCall, From: lbr.IP{Fn: "txbody", Site: "c1"}, To: lbr.IP{Fn: "mid"}, InTSX: true},
			{Kind: lbr.KindCall, From: lbr.IP{Fn: "tm_begin", Site: "c0"}, To: lbr.IP{Fn: "txbody"}, InTSX: true},
			{Kind: lbr.KindCall, From: lbr.IP{Fn: "main_loop"}, To: lbr.IP{Fn: "tm_begin"}},
		},
	}
}

// benchFlatSample builds an ordinary out-of-transaction cycles sample.
func benchFlatSample() *machine.Sample {
	return &machine.Sample{
		Event: pmu.Cycles,
		TID:   0,
		Time:  1000,
		IP:    lbr.IP{Fn: "main_loop", Site: "hot"},
		State: 0,
		Stack: []lbr.IP{{Fn: "thread_root"}, {Fn: "main_loop", Site: "hot"}},
	}
}

func BenchmarkContextReconstructInTx(b *testing.B) {
	c := NewCollector(1, pmu.DefaultPeriods())
	s := benchInTxSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = c.context(s)
	}
}

func BenchmarkHandleSampleInTx(b *testing.B) {
	c := NewCollector(1, pmu.DefaultPeriods())
	s := benchInTxSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.HandleSample(s)
	}
}

func BenchmarkHandleSampleFlat(b *testing.B) {
	c := NewCollector(1, pmu.DefaultPeriods())
	s := benchFlatSample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.HandleSample(s)
	}
}

package analyzer

import (
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/machine"
	"txsampler/internal/mem"
	"txsampler/internal/pmu"
)

// TestTopFalseSharing: contexts rank by false-sharing samples, and
// clean contexts never appear.
func TestTopFalseSharing(t *testing.T) {
	p := periods(100, 1, 1)
	p[pmu.Stores] = 1
	c := core.NewCollector(2, p)
	store := func(tid int, fn string, addr uint64, now uint64) {
		c.HandleSample(&machine.Sample{
			Event: pmu.Stores, TID: tid, HasAddr: true, IsWrite: true,
			Addr: mem.Addr(addr), Time: now,
			Stack: stack("main", fn), IP: lbr.IP{Fn: fn},
		})
	}
	// padfree: two threads hammer sibling words of one line.
	for i := uint64(0); i < 8; i++ {
		store(int(i%2), "padfree", 0x9000+(i%2)*8, i*10)
	}
	// clean: a private line, one thread.
	for i := uint64(0); i < 8; i++ {
		store(0, "clean", 0xa000, i*10)
	}
	r := Analyze("sharing", c)
	top := r.TopFalseSharing(5)
	if len(top) == 0 {
		t.Fatal("no false-sharing contexts found")
	}
	leaf := top[0].Frames[len(top[0].Frames)-1].Fn
	if leaf != "padfree" {
		t.Fatalf("hottest false-sharing leaf = %q, want padfree", leaf)
	}
	for _, hc := range top {
		if hc.Metrics.FalseSharing == 0 {
			t.Fatalf("clean context ranked: %v", hc.Frames)
		}
	}
}

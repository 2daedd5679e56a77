// Histo case study (paper §8.3): TxSampler diagnoses the Parboil
// histogram's transaction-overhead pathology, the fix (coalescing
// transactions, Listing 4), and the false-sharing pathology the fix
// uncovers on uniform input — resolved by sorting the input.
//
//	go run ./examples/histo
package main

import (
	"fmt"
	"log"
	"os"

	"txsampler"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

func profile(name string) *txsampler.Result {
	// Dense memory sampling so the shadow-memory contention analysis
	// has enough samples on this scaled-down run (§6: sampling rates
	// are tuned per analysis).
	periods := txsampler.DefaultPeriods()
	periods[pmu.Loads] = 150
	periods[pmu.Stores] = 150
	res, err := txsampler.Run(name, txsampler.Options{Seed: 1, Profile: true, Periods: periods})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func native(name string) *txsampler.Result {
	res, err := txsampler.Run(name, txsampler.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("== Step 1: profile the baseline (input 1, one transaction per pixel) ==")
	base := profile("parboil/histo-1")
	base.Report.Render(os.Stdout)
	fmt.Println()
	base.Advice.Render(os.Stdout)

	fmt.Printf("\nT_oh share of critical-section time: %.0f%% -> the decision tree suggests merging transactions\n\n",
		100*base.Report.TimeShares()[rtm.ModeOverhead])

	fmt.Println("== Step 2: apply the fix — coalesce pixels per transaction (Listing 4) ==")
	b1 := native("parboil/histo-1")
	m1 := native("parboil/histo-1-merged")
	fmt.Printf("input 1: baseline %d cycles, merged %d cycles -> %.2fx speedup (paper: 2.95x)\n\n",
		b1.ElapsedCycles, m1.ElapsedCycles, float64(b1.ElapsedCycles)/float64(m1.ElapsedCycles))

	fmt.Println("== Step 3: the same fix on uniform input 2 backfires ==")
	b2 := native("parboil/histo-2")
	m2 := native("parboil/histo-2-merged")
	fmt.Printf("input 2: baseline %d cycles, merged %d cycles -> %.2fx (paper: slight slowdown)\n",
		b2.ElapsedCycles, m2.ElapsedCycles, float64(b2.ElapsedCycles)/float64(m2.ElapsedCycles))

	p2 := profile("parboil/histo-2-merged")
	r := p2.Report
	ratio := "effectively unbounded (the run serializes)"
	if v := r.AbortCommitRatio(); v < 1e6 {
		ratio = fmt.Sprintf("%.2f", v)
	}
	fmt.Printf("profiling the merged input-2 run: abort/commit = %s, false-sharing samples = %d (true: %d)\n",
		ratio, r.Totals.FalseSharing, r.Totals.TrueSharing)
	fmt.Println("TxSampler attributes the contention to the densely packed bins -> sort the input")
	fmt.Println()

	fmt.Println("== Step 4: sort the input so each thread's values concentrate ==")
	s2 := native("parboil/histo-2-sorted")
	fmt.Printf("input 2: baseline %d cycles, merged+sorted %d cycles -> %.2fx speedup (paper: 2.91x)\n",
		b2.ElapsedCycles, s2.ElapsedCycles, float64(b2.ElapsedCycles)/float64(s2.ElapsedCycles))
}

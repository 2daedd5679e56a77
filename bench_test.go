package txsampler_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), plus
// ablation benchmarks for the design choices DESIGN.md calls out.
// Each benchmark iteration runs the full experiment, so b.N stays at 1
// under the default benchtime; the headline numbers are attached as
// custom metrics.

import (
	"io"
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/experiments"
	"txsampler/internal/pmu"
	"txsampler/internal/rtm"
)

const (
	benchThreads = 14
	benchSeed    = 1
)

// BenchmarkFig5Overhead regenerates Figure 5: TxSampler's runtime
// overhead on every base HTMBench program.
func BenchmarkFig5Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, geo, err := experiments.Fig5(io.Discard, benchThreads, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*geo, "overhead-%")
		b.ReportMetric(float64(len(rows)), "programs")
	}
}

// BenchmarkFig6Threads regenerates Figure 6: mean STAMP overhead at
// 1/2/4/8/14 threads.
func BenchmarkFig6Threads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Fig6(io.Discard, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*out[1], "overhead-1t-%")
		b.ReportMetric(100*out[14], "overhead-14t-%")
	}
}

// BenchmarkTable1Fig7Clomp regenerates Table 1 / Figure 7: the
// CLOMP-TM characterization across the six configurations.
func BenchmarkTable1Fig7Clomp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(io.Discard, benchThreads, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Headline shape checks as metrics: input 2's lock waiting and
		// input 3's capacity share (of large-transaction aborts).
		for _, r := range rows {
			switch r.Name {
			case "clomp/large-2":
				b.ReportMetric(100*r.Share[rtm.ModeWaiting], "large2-wait-%")
			case "clomp/large-3":
				total := r.Conflicts + r.Capacity + r.Sync
				if total > 0 {
					b.ReportMetric(100*float64(r.Capacity)/float64(total), "large3-capacity-%")
				}
			}
		}
	}
}

// BenchmarkFig8Categorize regenerates Figure 8: the Type I/II/III
// program categorization, reporting agreement with the paper.
func BenchmarkFig8Categorize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(io.Discard, benchThreads, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		match, total := 0, 0
		for _, r := range rows {
			if r.Expected != 0 {
				total++
				if r.Expected == r.Category {
					match++
				}
			}
		}
		b.ReportMetric(float64(match), "matches")
		b.ReportMetric(float64(total), "placed")
	}
}

// BenchmarkTable2Speedups regenerates Table 2: the speedup of every
// optimization pair.
func BenchmarkTable2Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(io.Discard, benchThreads, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		wins := 0
		for _, r := range rows {
			if r.Speedup > 1 {
				wins++
			}
			b.ReportMetric(r.Speedup, strings.ReplaceAll(r.Code, " ", "-")+"-x")
		}
		b.ReportMetric(float64(wins), "wins")
	}
}

// BenchmarkCaseStudies regenerates the §8 case-study profiles.
func BenchmarkCaseStudies(b *testing.B) {
	for _, name := range []string{"parsec/dedup", "app/leveldb", "parboil/histo-1"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.CaseStudy(io.Discard, name, benchThreads, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemOverhead regenerates §7.1's collector memory bound.
func BenchmarkMemOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		maxPer, err := experiments.MemOverhead(io.Discard, benchThreads, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(maxPer)/1024, "max-KiB-per-thread")
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationRetries sweeps the retry budget on a contended
// workload: too few retries push everything through the serial
// fallback; the paper's 5 is near the knee.
func BenchmarkAblationRetries(b *testing.B) {
	for _, retries := range []int{0, 1, 5, 8} {
		b.Run(map[int]string{0: "r0", 1: "r1", 5: "r5", 8: "r8"}[retries], func(b *testing.B) {
			p := rtm.DefaultPolicy()
			p.MaxRetries = retries
			for i := 0; i < b.N; i++ {
				res, err := txsampler.Run("stamp/vacation", txsampler.Options{Threads: benchThreads, Seed: benchSeed, Policy: &p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ElapsedCycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationCapacityRetry compares the paper's
// retry-on-capacity policy with TSX's retry-bit heuristic (immediate
// fallback) on the capacity-prone CLOMP input 3.
func BenchmarkAblationCapacityRetry(b *testing.B) {
	for _, retry := range []bool{true, false} {
		name := "retry"
		if !retry {
			name = "fallback"
		}
		b.Run(name, func(b *testing.B) {
			p := rtm.DefaultPolicy()
			p.RetryOnCapacity = retry
			for i := 0; i < b.N; i++ {
				res, err := txsampler.Run("clomp/large-3", txsampler.Options{Threads: benchThreads, Seed: benchSeed, Policy: &p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ElapsedCycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationBackoff compares retry backoff on versus off on a
// hot-spot workload; without it, colliding retries cascade into the
// fallback lock.
func BenchmarkAblationBackoff(b *testing.B) {
	for _, base := range []int{0, 30} {
		name := "off"
		if base > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			p := rtm.DefaultPolicy()
			p.BackoffBase = base
			for i := 0; i < b.N; i++ {
				res, err := txsampler.Run("stamp/kmeans", txsampler.Options{Threads: benchThreads, Seed: benchSeed, Policy: &p})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.ElapsedCycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationLBRDepth measures in-transaction path truncation at
// LBR depths 8, 16 (Haswell/Broadwell), and 32 (Skylake+), §3.4.
func BenchmarkAblationLBRDepth(b *testing.B) {
	for _, depth := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "d8", 16: "d16", 32: "d32"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := txsampler.Run("micro/deep-calls", txsampler.Options{
					Threads: benchThreads, Seed: benchSeed, Profile: true, LBRDepth: depth,
				})
				if err != nil {
					b.Fatal(err)
				}
				tot := res.Report.Totals
				samples := float64(tot.W() + tot.AbortSamples + tot.CommitSamples + tot.MemSamples)
				if samples > 0 {
					b.ReportMetric(100*float64(tot.Truncated)/samples, "truncated-%")
				}
			}
		})
	}
}

// BenchmarkAblationSamplingPeriod sweeps the cycles sampling period:
// denser sampling costs overhead, sparser sampling costs profile
// resolution (§6's 50-200 samples/s guidance).
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for _, period := range []uint64{2_000, 10_000, 50_000} {
		b.Run(map[uint64]string{2_000: "p2k", 10_000: "p10k", 50_000: "p50k"}[period], func(b *testing.B) {
			periods := pmu.DefaultPeriods()
			periods[pmu.Cycles] = period
			for i := 0; i < b.N; i++ {
				native, prof, ov, err := txsampler.Overhead("stamp/vacation", txsampler.Options{
					Threads: benchThreads, Seed: benchSeed, Periods: periods,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = native
				b.ReportMetric(100*ov, "overhead-%")
				b.ReportMetric(float64(prof.Report.Totals.W())/float64(benchThreads), "cycles-samples-per-thread")
			}
		})
	}
}

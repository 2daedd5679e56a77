// Package validate is the differential validation harness for
// generated transactional programs (internal/progen): it runs each
// program through the full txsampler pipeline and judges the profiler
// against the machine's hidden ground truth, mirroring the paper's
// §7.2 accuracy methodology (E10/E12) — in-transaction context
// recovery rate, the abort-cause confusion matrix, and true/false
// sharing site precision/recall — and then checks a library of
// metamorphic invariants (period stability, thread-permutation
// isomorphism, quantum byte-identity, bounded fault drift).
//
// cmd/txvalidate drives campaigns of N programs and emits the
// machine-readable report; CI fails when aggregate metrics drop below
// the checked-in baseline (VALIDATE_baseline.json).
package validate

import (
	"fmt"
	"sort"

	"txsampler"
	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/pmu"
	"txsampler/internal/progen"
	"txsampler/internal/rtm"
)

// Periods returns the dense sampling periods validation runs use.
// Generated programs are small (thousands of transactions), so the
// §7.2 metrics need far denser sampling than DefaultPeriods for the
// precision/recall fractions to measure profiler bias rather than
// sampling noise — the same reasoning as the chaos suite's periods.
func Periods() pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = 400
	p[pmu.TxAbort] = 2
	p[pmu.TxCommit] = 8
	p[pmu.Loads] = 12
	p[pmu.Stores] = 12
	return p
}

// CauseCell is one row of the abort-cause confusion comparison: the
// cause's share of all application aborts per the machine's exact
// instrumentation (truth) vs. per the profiler's period-scaled sample
// counts (sampled).
type CauseCell struct {
	Cause   string  `json:"cause"`
	Truth   float64 `json:"truth_share"`
	Sampled float64 `json:"sampled_share"`
}

// Sharing is a precision/recall pair for one sharing class. Reported
// sites are the source-site labels of merged-CCT contexts the profiler
// classified into the class; expected sites come from the generated
// program's construction. Recall is measured over expected sites that
// received at least two memory samples — detection pairs sampled
// accesses, so an under-sampled site is a sampling miss, not a
// classification miss (§7.2 judges the classifier).
type Sharing struct {
	ReportedSites []string `json:"reported_sites"`
	ExpectedSites []string `json:"expected_sites"`
	// SampledSites is the subset of expected sites with >= 2 memory
	// samples (the recall denominator).
	SampledSites []string `json:"sampled_sites"`
	Precision    float64  `json:"precision"`
	Recall       float64  `json:"recall"`
}

// ProgramResult is the full validation outcome for one generated
// program.
type ProgramResult struct {
	Name    string `json:"name"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads"`
	Regions int    `json:"regions"`

	// Context recovery (§7.2 E10): of the samples that truly executed
	// inside a transaction, the fraction whose reconstructed calling
	// context matches the hidden true frame path — for TxSampler's
	// LBR-based reconstruction and for the naive rolled-back stack a
	// conventional profiler reports.
	InTxSamples     uint64  `json:"in_tx_samples"`
	ContextCorrect  uint64  `json:"context_correct"`
	NaiveCorrect    uint64  `json:"naive_correct"`
	PathDetected    uint64  `json:"path_detected"`
	ContextRecovery float64 `json:"context_recovery"`
	NaiveRecovery   float64 `json:"naive_recovery"`
	PathDetection   float64 `json:"path_detection"`

	// Abort-cause confusion (§7.2 E12): per-cause truth vs. sampled
	// shares over non-ambient causes, and the largest absolute share
	// difference.
	CauseMatrix []CauseCell `json:"cause_matrix"`
	CauseDrift  float64     `json:"cause_drift"`

	TrueSharing  Sharing `json:"true_sharing"`
	FalseSharing Sharing `json:"false_sharing"`

	// Execution-mode classification (hybrid-TM four-way split): of the
	// cycles samples taken inside critical sections, how many the
	// profiler's state-word + LBR-abort-bit classification puts into
	// the same htm/stm/lock/waiting bucket as the machine's exact
	// ground truth, plus the non-zero confusion-matrix cells.
	ModeSamples  uint64     `json:"mode_samples"`
	ModeCorrect  uint64     `json:"mode_correct"`
	ModeAccuracy float64    `json:"mode_accuracy"`
	ModeMatrix   []ModeCell `json:"mode_matrix,omitempty"`

	// Persistence-stall classification (pmem tier): over the cycles
	// samples whose ground truth OR profiler classification is the
	// durable-commit persist epilogue, the fraction on the diagonal.
	// Zero/omitted for programs without durable regions.
	PersistSamples  uint64  `json:"persist_samples,omitempty"`
	PersistCorrect  uint64  `json:"persist_correct,omitempty"`
	PersistAccuracy float64 `json:"persist_accuracy,omitempty"`

	// Elision-verdict scoring (elision tier): of the program's elidable
	// lock sites that received samples, how many the profiler's per-site
	// "would elision win?" verdict matches the by-construction ground
	// truth, plus the verdict confusion matrix. Zero/omitted for
	// programs without elidable locks.
	ElideSites    int         `json:"elide_sites,omitempty"`
	ElideCorrect  int         `json:"elide_correct,omitempty"`
	ElideAccuracy float64     `json:"elide_accuracy,omitempty"`
	ElideMatrix   []ElideCell `json:"elide_matrix,omitempty"`

	// Violations lists every failed metamorphic invariant (empty on a
	// healthy program).
	Violations []string `json:"violations"`
}

// ModeCell is one non-zero cell of a program's execution-mode
// confusion matrix.
type ModeCell struct {
	Truth string `json:"truth"`
	Got   string `json:"got"`
	Count uint64 `json:"count"`
}

// ElideCell is one non-zero cell of a program's elision-verdict
// confusion matrix: the by-construction truth vs. the profiler's
// per-site verdict.
type ElideCell struct {
	Truth string `json:"truth"`
	Got   string `json:"got"`
	Count int    `json:"count"`
}

// Options tunes a validation run; the zero value is the standard
// harness configuration.
type Options struct {
	// Threads overrides the program's generated thread count.
	Threads int
	// Hybrid selects the slow-path execution mode of the generated
	// programs' global lock (zero = lock-only).
	Hybrid machine.HybridPolicy
	// Mix selects the campaign's generation mix (zero = the default):
	// stm makes software-transaction samples dominate the mode
	// classification population, pmem gives the persistence-stall
	// bucket real sample mass, and elide grades per-site "would elision
	// win?" verdicts against the by-construction truth.
	Mix progen.Mix
}

// Program validates one generated program: the base profiled run with
// the accuracy probe, the §7.2 metric extraction, and the metamorphic
// invariant suite (two or three further machine runs). Durable
// programs run with the persistent-memory tier on, and programs with
// elidable locks with elision on.
func Program(p *progen.Program, o Options) (*ProgramResult, error) {
	w := p.Workload()
	base := txsampler.Options{
		Threads: o.Threads, Seed: p.Seed, Profile: true,
		Periods: Periods(), Hybrid: o.Hybrid,
	}
	if p.Durable() {
		base.Pmem = pmem.Config{Enabled: true}
	}
	if p.Elides() {
		base.Elision = machine.ElisionOn
	}
	res, acc, err := txsampler.RunWorkloadWithAccuracy(w, base)
	if err != nil {
		return nil, fmt.Errorf("validate %s: %w", p.Name, err)
	}
	pr := &ProgramResult{
		Name:    p.Name,
		Seed:    p.Seed,
		Threads: res.Threads,
		Regions: len(p.Regions),

		InTxSamples:     acc.InTx,
		ContextCorrect:  acc.TxSamplerCorrect,
		NaiveCorrect:    acc.NaiveCorrect,
		PathDetected:    acc.PathDetected,
		ContextRecovery: frac(acc.TxSamplerCorrect, acc.InTx),
		NaiveRecovery:   frac(acc.NaiveCorrect, acc.InTx),
		PathDetection:   frac(acc.PathDetected, acc.InTx),
	}
	pr.CauseMatrix, pr.CauseDrift = causeMatrix(res)
	pr.TrueSharing = sharingScore(res, p.TrueSites, true)
	pr.FalseSharing = sharingScore(res, p.FalseSites, false)
	pr.ModeSamples = acc.Modes.Total()
	pr.ModeCorrect = acc.Modes.Correct()
	pr.ModeAccuracy = round(acc.Modes.Accuracy())
	pr.ModeMatrix = modeCells(&acc.Modes)
	pr.PersistSamples, pr.PersistCorrect, pr.PersistAccuracy = persistScore(&acc.Modes)
	pr.ElideSites, pr.ElideCorrect, pr.ElideMatrix = elisionScore(p, res)
	pr.ElideAccuracy = ratioOr1(pr.ElideCorrect, pr.ElideSites)
	pr.Violations, err = checkInvariants(p, base, res)
	if err != nil {
		return nil, fmt.Errorf("validate %s: %w", p.Name, err)
	}
	return pr, nil
}

// minCauseSamples gates the confusion-matrix drift metric: a share
// estimate from fewer sampled aborts is statistical noise, so the
// matrix is still reported but its drift does not count against the
// baseline.
const minCauseSamples = 25

// causeMatrix compares the machine's exact abort-cause distribution
// with the profiler's period-scaled estimate, over non-ambient
// (application) causes.
func causeMatrix(res *txsampler.Result) ([]CauseCell, float64) {
	period := res.Report.Periods[pmu.TxAbort]
	if period == 0 {
		period = 1
	}
	var truthTotal, sampTotal float64
	var samples uint64
	sampled := make(map[htm.Cause]float64)
	for c := htm.Cause(0); c < htm.NumCauses; c++ {
		if c.Ambient() {
			continue
		}
		truthTotal += float64(res.GroundTruth.Aborts[c])
		samples += res.Report.Totals.AbortCount[c]
		sampled[c] = float64(res.Report.Totals.AbortCount[c]) * float64(period)
		sampTotal += sampled[c]
	}
	var cells []CauseCell
	var drift float64
	for c := htm.Cause(0); c < htm.NumCauses; c++ {
		if c.Ambient() {
			continue
		}
		truth := float64(res.GroundTruth.Aborts[c])
		if truth == 0 && sampled[c] == 0 {
			continue
		}
		cell := CauseCell{Cause: c.String()}
		if truthTotal > 0 {
			cell.Truth = round(truth / truthTotal)
		}
		if sampTotal > 0 {
			cell.Sampled = round(sampled[c] / sampTotal)
		}
		if d := abs(cell.Truth - cell.Sampled); d > drift {
			drift = d
		}
		cells = append(cells, cell)
	}
	if samples < minCauseSamples {
		drift = 0
	}
	return cells, round(drift)
}

// sharingScore extracts the source sites the profiler classified as
// true- (or false-) sharing from the merged CCT and scores them
// against the program's by-construction expectation. Only contexts
// whose leaf frame carries a source-site annotation participate:
// runtime-internal contention (the fallback lock word, spinning in
// tm_begin) is unlabeled and is not the program's data.
func sharingScore(res *txsampler.Result, expected []string, wantTrue bool) Sharing {
	reported := make(map[string]bool)
	sampledAt := make(map[string]uint64)
	res.Report.Merged.Walk(func(n *core.Node, _ int) {
		frames := n.Frames()
		if len(frames) == 0 {
			return
		}
		site := frames[len(frames)-1].Site
		if site == "" {
			return
		}
		sampledAt[site] += n.Data.MemSamples
		count := n.Data.TrueSharing
		if !wantTrue {
			count = n.Data.FalseSharing
		}
		if count > 0 {
			reported[site] = true
		}
	})
	s := Sharing{
		ReportedSites: sortedKeys(reported),
		ExpectedSites: append([]string(nil), expected...),
	}
	sort.Strings(s.ExpectedSites)
	var tp, fn int
	for _, site := range s.ExpectedSites {
		// Sharing detection pairs two sampled accesses (§3.3), so a
		// site with fewer than two memory samples cannot be detected
		// by any classifier: a sampling miss, not a profiler miss.
		if sampledAt[site] < 2 {
			continue
		}
		s.SampledSites = append(s.SampledSites, site)
		if reported[site] {
			tp++
		} else {
			fn++
		}
	}
	if len(s.ReportedSites) > 0 {
		s.Precision = round(float64(tp) / float64(len(s.ReportedSites)))
	} else {
		s.Precision = 1 // nothing reported, nothing wrong
	}
	if tp+fn > 0 {
		s.Recall = round(float64(tp) / float64(tp+fn))
	} else {
		s.Recall = 1 // nothing sampled at expected sites: vacuous
	}
	return s
}

// persistScore extracts the persistence-stall cell of the mode
// confusion matrix: the population is every sample whose ground truth
// or classification is the persist epilogue (union, so both missed
// stalls and phantom stalls count against the accuracy), correct is
// the diagonal. Returns zeros when the population is empty.
func persistScore(m *core.ModeMatrix) (samples, correct uint64, accuracy float64) {
	f := rtm.ModeFlush
	diag := m.Counts[f][f]
	union := diag
	for g := rtm.Mode(0); g < rtm.NumModes; g++ {
		if g != f {
			union += m.Counts[f][g] + m.Counts[g][f]
		}
	}
	if union == 0 {
		return 0, 0, 0
	}
	return union, diag, round(float64(diag) / float64(union))
}

// elisionScore grades the profiler's per-lock-site elision verdicts
// against the program's by-construction expectation. Sites whose
// verdict is "no-data" (no executed sample landed in the site's
// subtree) are sampling misses, not classification misses, and are
// excluded — everything else, including a "plain-lock" verdict on a
// site that truly ran elided, counts against the accuracy.
func elisionScore(p *progen.Program, res *txsampler.Result) (sites, correct int, cells []ElideCell) {
	verdicts := make(map[string]string)
	for _, s := range res.Report.ElisionSites() {
		verdicts[s.Site] = s.Verdict()
	}
	counts := make(map[[2]string]int)
	for _, r := range p.Regions {
		shouldWin, ok := r.Kind.ElideVerdict()
		if !ok {
			continue
		}
		got, found := verdicts[r.Site]
		if !found || got == "no-data" {
			continue
		}
		truth := "lose"
		if shouldWin {
			truth = "win"
		}
		sites++
		if got == truth {
			correct++
		}
		counts[[2]string{truth, got}]++
	}
	keys := make([][2]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		cells = append(cells, ElideCell{Truth: k[0], Got: k[1], Count: counts[k]})
	}
	return sites, correct, cells
}

// modeCells flattens the non-zero confusion cells in fixed
// (truth, got) order, so JSON reports stay deterministic.
func modeCells(m *core.ModeMatrix) []ModeCell {
	var cells []ModeCell
	for truth := rtm.Mode(0); truth < rtm.NumModes; truth++ {
		for got := rtm.Mode(0); got < rtm.NumModes; got++ {
			if n := m.Counts[truth][got]; n > 0 {
				cells = append(cells, ModeCell{Truth: truth.String(), Got: got.String(), Count: n})
			}
		}
	}
	return cells
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 1
	}
	return round(float64(num) / float64(den))
}

// round keeps reported fractions at a fixed precision so JSON output
// is stable and baselines are not sensitive to float formatting.
func round(f float64) float64 {
	const scale = 1e6
	if f < 0 {
		return float64(int64(f*scale-0.5)) / scale
	}
	return float64(int64(f*scale+0.5)) / scale
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

package validate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"txsampler/internal/machine"
	"txsampler/internal/progen"
)

// Aggregate is the campaign-level §7.2 scorecard: micro-averaged over
// every program's samples and sites, so large programs weigh more —
// the same weighting the paper's aggregate accuracy numbers use.
type Aggregate struct {
	Programs int `json:"programs"`
	// InTxSamples is the total in-transaction sample population the
	// recovery rates are measured over.
	InTxSamples     uint64  `json:"in_tx_samples"`
	ContextRecovery float64 `json:"context_recovery"`
	NaiveRecovery   float64 `json:"naive_recovery"`
	PathDetection   float64 `json:"path_detection"`
	// MaxCauseDrift is the worst per-program confusion-matrix drift.
	MaxCauseDrift float64 `json:"max_cause_drift"`

	TrueSharingPrecision  float64 `json:"true_sharing_precision"`
	TrueSharingRecall     float64 `json:"true_sharing_recall"`
	FalseSharingPrecision float64 `json:"false_sharing_precision"`
	FalseSharingRecall    float64 `json:"false_sharing_recall"`

	// ModeSamples and ModeAccuracy micro-average the execution-mode
	// confusion matrices: of all in-CS cycles samples across programs,
	// the fraction classified into the correct htm/stm/lock/waiting
	// bucket.
	ModeSamples  uint64  `json:"mode_samples"`
	ModeAccuracy float64 `json:"mode_accuracy"`

	// PersistSamples and PmemAccuracy micro-average the
	// persistence-stall classification: over every sample whose truth
	// or classification is the durable-commit persist epilogue, the
	// fraction on the diagonal. Vacuously 1 for campaigns without
	// durable regions.
	PersistSamples uint64  `json:"persist_samples,omitempty"`
	PmemAccuracy   float64 `json:"pmem_accuracy"`

	// ElideSites and ElisionAccuracy micro-average the elision-verdict
	// scoring: over every sampled elidable lock site across programs,
	// the fraction whose "would elision win?" verdict matches the
	// by-construction truth. Vacuously 1 for campaigns without
	// elidable locks.
	ElideSites      int     `json:"elide_sites,omitempty"`
	ElisionAccuracy float64 `json:"elision_accuracy"`

	// InvariantViolations counts failed metamorphic invariants across
	// all programs (zero on a healthy profiler).
	InvariantViolations int `json:"invariant_violations"`
}

// Report is the machine-readable output of one validation campaign.
type Report struct {
	// N and Seed reproduce the campaign: program i uses generation
	// seed Seed+i.
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads,omitempty"`
	Hybrid  string `json:"hybrid_policy,omitempty"`
	Mix     string `json:"mix,omitempty"`

	Aggregate Aggregate        `json:"aggregate"`
	Programs  []*ProgramResult `json:"programs"`
}

// Campaign generates and validates n programs with generation seeds
// seed..seed+n-1. It is deterministic: equal (n, seed, o) yield
// byte-identical reports.
func Campaign(n int, seed int64, o Options) (*Report, error) {
	r := &Report{N: n, Seed: seed, Threads: o.Threads}
	if o.Hybrid != machine.HybridLockOnly {
		r.Hybrid = o.Hybrid.String()
	}
	if o.Mix != 0 {
		r.Mix = o.Mix.String()
	}
	for i := 0; i < n; i++ {
		p := progen.Generate(progen.Config{Seed: seed + int64(i), Threads: o.Threads, Mix: o.Mix})
		pr, err := Program(p, o)
		if err != nil {
			return nil, err
		}
		r.Programs = append(r.Programs, pr)
	}
	r.Aggregate = aggregate(r.Programs)
	return r, nil
}

func aggregate(progs []*ProgramResult) Aggregate {
	a := Aggregate{Programs: len(progs)}
	var txCorrect, naiveCorrect, detected, inTx uint64
	var modeTotal, modeCorrect uint64
	var persistTotal, persistCorrect uint64
	var elideTotal, elideCorrect int
	var tTP, tRep, tSam, fTP, fRep, fSam int
	for _, p := range progs {
		inTx += p.InTxSamples
		txCorrect += p.ContextCorrect
		naiveCorrect += p.NaiveCorrect
		detected += p.PathDetected
		modeTotal += p.ModeSamples
		modeCorrect += p.ModeCorrect
		persistTotal += p.PersistSamples
		persistCorrect += p.PersistCorrect
		elideTotal += p.ElideSites
		elideCorrect += p.ElideCorrect
		if p.CauseDrift > a.MaxCauseDrift {
			a.MaxCauseDrift = p.CauseDrift
		}
		tp, rep, sam := sharingCounts(p.TrueSharing)
		tTP, tRep, tSam = tTP+tp, tRep+rep, tSam+sam
		tp, rep, sam = sharingCounts(p.FalseSharing)
		fTP, fRep, fSam = fTP+tp, fRep+rep, fSam+sam
		a.InvariantViolations += len(p.Violations)
	}
	a.InTxSamples = inTx
	a.ContextRecovery = frac(txCorrect, inTx)
	a.NaiveRecovery = frac(naiveCorrect, inTx)
	a.PathDetection = frac(detected, inTx)
	a.TrueSharingPrecision = ratioOr1(tTP, tRep)
	a.TrueSharingRecall = ratioOr1(tTP, tSam)
	a.FalseSharingPrecision = ratioOr1(fTP, fRep)
	a.FalseSharingRecall = ratioOr1(fTP, fSam)
	a.ModeSamples = modeTotal
	a.ModeAccuracy = frac(modeCorrect, modeTotal)
	a.PersistSamples = persistTotal
	a.PmemAccuracy = frac(persistCorrect, persistTotal)
	a.ElideSites = elideTotal
	a.ElisionAccuracy = ratioOr1(elideCorrect, elideTotal)
	return a
}

// sharingCounts recovers (true positives, reported, sampled-expected)
// from one program's Sharing so the campaign can micro-average.
func sharingCounts(s Sharing) (tp, reported, sampled int) {
	in := make(map[string]bool, len(s.ReportedSites))
	for _, r := range s.ReportedSites {
		in[r] = true
	}
	for _, e := range s.SampledSites {
		if in[e] {
			tp++
		}
	}
	return tp, len(s.ReportedSites), len(s.SampledSites)
}

func ratioOr1(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return round(float64(num) / float64(den))
}

// WriteJSON emits the report as deterministic, indented JSON (struct
// field order; no maps).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Baseline holds the minimum acceptable aggregate metrics (and
// maximum acceptable drift/violations) for CI accuracy-regression
// gating; see VALIDATE_baseline.json.
type Baseline struct {
	MinContextRecovery       float64 `json:"min_context_recovery"`
	MinTrueSharingPrecision  float64 `json:"min_true_sharing_precision"`
	MinTrueSharingRecall     float64 `json:"min_true_sharing_recall"`
	MinFalseSharingPrecision float64 `json:"min_false_sharing_precision"`
	MinFalseSharingRecall    float64 `json:"min_false_sharing_recall"`
	MaxCauseDrift            float64 `json:"max_cause_drift"`
	MaxInvariantViolations   int     `json:"max_invariant_violations"`
	// MinModeAccuracy floors the four-way execution-mode
	// classification accuracy (htm/stm/lock/waiting buckets vs the
	// machine's ground truth).
	MinModeAccuracy float64 `json:"min_mode_accuracy"`
	// MinPmemAccuracy floors the persistence-stall classification
	// accuracy on pmem-mix campaigns (vacuously satisfied by campaigns
	// without durable regions).
	MinPmemAccuracy float64 `json:"min_pmem_accuracy"`
	// MinElisionAccuracy floors the per-site elision-verdict accuracy
	// on elide-mix campaigns (vacuously satisfied by campaigns without
	// elidable locks).
	MinElisionAccuracy float64 `json:"min_elision_accuracy"`
}

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("baseline %s: %w", path, err)
	}
	return b, nil
}

// Check compares a campaign's aggregate against the baseline and
// returns one error per regressed metric, joined.
func (b Baseline) Check(a Aggregate) error {
	var errs []string
	low := func(name string, got, min float64) {
		if got < min {
			errs = append(errs, fmt.Sprintf("%s %.4f below baseline %.4f", name, got, min))
		}
	}
	low("context_recovery", a.ContextRecovery, b.MinContextRecovery)
	low("true_sharing_precision", a.TrueSharingPrecision, b.MinTrueSharingPrecision)
	low("true_sharing_recall", a.TrueSharingRecall, b.MinTrueSharingRecall)
	low("false_sharing_precision", a.FalseSharingPrecision, b.MinFalseSharingPrecision)
	low("false_sharing_recall", a.FalseSharingRecall, b.MinFalseSharingRecall)
	low("mode_accuracy", a.ModeAccuracy, b.MinModeAccuracy)
	low("pmem_accuracy", a.PmemAccuracy, b.MinPmemAccuracy)
	low("elision_accuracy", a.ElisionAccuracy, b.MinElisionAccuracy)
	if a.MaxCauseDrift > b.MaxCauseDrift {
		errs = append(errs, fmt.Sprintf("max_cause_drift %.4f above baseline %.4f", a.MaxCauseDrift, b.MaxCauseDrift))
	}
	if a.InvariantViolations > b.MaxInvariantViolations {
		errs = append(errs, fmt.Sprintf("%d invariant violations (baseline allows %d)",
			a.InvariantViolations, b.MaxInvariantViolations))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("accuracy regression: %s", joinErrs(errs))
}

func joinErrs(errs []string) string {
	out := errs[0]
	for _, e := range errs[1:] {
		out += "; " + e
	}
	return out
}

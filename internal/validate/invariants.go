package validate

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/faults"
	"txsampler/internal/htm"
	"txsampler/internal/pmu"
	"txsampler/internal/profile"
	"txsampler/internal/progen"
	"txsampler/internal/rtm"
)

// Metamorphic invariant bounds. A generated program has no reference
// output, but related runs of the same program must relate in known
// ways; these constants bound the allowed deviation.
const (
	// topK is how many abort regions the period-stability invariant
	// compares; shareDrift bounds how far any top-k region's share of
	// the total abort weight may move between period variants, before
	// the per-program statistical tolerance is added (see driftBound).
	// Rank-order among near-tied minor regions legitimately flips
	// with the sampling grid, so the invariant is share-based: a
	// bounded share change implies boundedly small reordering.
	topK       = 3
	shareDrift = 0.15
	// minAbortSamples gates the statistical invariants: below this
	// many sampled application aborts even the widened bound would
	// mostly measure sampling noise, and the invariant holds
	// vacuously.
	minAbortSamples = 40
	// faultDriftBound caps how far the time-decomposition shares may
	// move under low-rate fault injection — the PR-1 chaos bound
	// (±10 points).
	faultDriftBound = 0.10
)

// lowFaultPlan is the low-rate injection regime the fault-drift
// invariant compares against the fault-free base run.
func lowFaultPlan() faults.Plan {
	return faults.Plan{SpuriousAbortRate: 0.002, SampleDropRate: 0.01}
}

// periodVariant returns the perturbed sampling periods for the
// period-stability invariant: every period shifted to values coprime
// with the base so sample points interleave completely differently,
// but of comparable density — PMU interrupts abort transactions, so a
// radically sparser grid would change the machine's retry timing
// itself rather than just the observation points.
func periodVariant() pmu.Periods {
	var p pmu.Periods
	p[pmu.Cycles] = 500
	p[pmu.TxAbort] = 3
	p[pmu.TxCommit] = 13
	p[pmu.Loads] = 17
	p[pmu.Stores] = 17
	return p
}

// checkInvariants runs the metamorphic invariant suite against the
// base profiled run. It returns the violations (nil when all hold)
// and performs up to three further machine runs: a period variant, a
// quantum-1 variant, and a low-fault variant.
func checkInvariants(p *progen.Program, base txsampler.Options, res *txsampler.Result) ([]string, error) {
	var violations []string
	w := p.Workload

	// Invariant 1 — period stability: changing sampling periods
	// changes which events are sampled, but must not reorder the top-k
	// abort contexts beyond the drift bound (the hot spots are
	// properties of the program, not of the sampling grid). The
	// invariant's premise is that the grid only moves the observation
	// points, so it is skipped for programs whose templates break it
	// (slow-path-forcing, durable, and elided regions; see
	// progen.Program.PeriodStable). The remaining invariants
	// (permutation, quantum identity, fault drift) apply to every
	// program.
	if p.PeriodStable() {
		perOpts := base
		perOpts.Periods = periodVariant()
		per, err := txsampler.RunWorkload(w(), perOpts)
		if err != nil {
			return nil, fmt.Errorf("period variant: %w", err)
		}
		if v := topKDrift(res.Report, per.Report); v != "" {
			violations = append(violations, "period-stability: "+v)
		}
	}

	// Invariant 2 — thread-ID permutation: the analyzer's cross-thread
	// coalescing must be order-independent, so re-merging the same
	// per-thread profiles in reversed order must yield an isomorphic
	// merged profile (identical context->metrics mapping).
	perm := make([]int, res.Threads)
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	permuted := analyzer.Analyze(res.Workload, res.Collector.Reordered(perm))
	if v := fingerprintDiff(res.Report, permuted); v != "" {
		violations = append(violations, "thread-permutation: "+v)
	}

	// Invariant 3 — quantum byte-identity: the scheduler's proven
	// quantum invariance, extended to generated programs. A quantum-1
	// (per-op scheduling) run must serialize to the byte-identical
	// profile database.
	qOpts := base
	qOpts.Quantum = 1
	q, _, err := txsampler.RunWorkloadWithAccuracy(w(), qOpts)
	if err != nil {
		return nil, fmt.Errorf("quantum variant: %w", err)
	}
	baseBytes, err := serialize(res.Report)
	if err != nil {
		return nil, err
	}
	qBytes, err := serialize(q.Report)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(baseBytes, qBytes) {
		violations = append(violations, fmt.Sprintf(
			"quantum-identity: profile bytes differ (%d vs %d bytes)", len(baseBytes), len(qBytes)))
	}

	// Invariant 4 — bounded fault drift: low-rate ambient injection
	// may cost samples but must not move the time-decomposition
	// classification by more than the chaos bound.
	fOpts := base
	fOpts.Faults = lowFaultPlan()
	f, err := txsampler.RunWorkload(w(), fOpts)
	if err != nil {
		return nil, fmt.Errorf("fault variant: %w", err)
	}
	violations = append(violations, faultDrift(res.Report, f.Report)...)
	return violations, nil
}

// topKDrift checks period stability of the hot abort regions: every
// region in either run's top-k (by share of total application abort
// weight) must have a share within shareDrift of its share in the
// other run. Comparison is at region granularity — abort samples land
// at arbitrary depths of a region's call chain, so full context paths
// of one hot region are near-tied prefix entries whose relative rank
// legitimately flips with the sampling grid, while the region's
// aggregate share may not. Vacuously holds when either run sampled
// fewer than minAbortSamples application aborts.
func topKDrift(a, b *analyzer.Report) string {
	na, nb := appAbortSamples(a), appAbortSamples(b)
	if na < minAbortSamples || nb < minAbortSamples {
		return ""
	}
	bound := driftBound(na, nb)
	sa, sb := regionShares(a), regionShares(b)
	for _, region := range append(topShares(sa), topShares(sb)...) {
		if d := abs(sa[region] - sb[region]); d > bound {
			return fmt.Sprintf("abort region %s share moved %.3f across period variants (%.3f vs %.3f, bound %.3f)",
				region, d, sa[region], sb[region], bound)
		}
	}
	return ""
}

// driftBound widens shareDrift by the sampling noise of the two share
// estimates: a share from n samples has standard error sqrt(p(1-p)/n)
// <= 0.5/sqrt(n), and the estimates are independent, so two two-sigma
// terms are added. At n=40 the bound is ~0.31, converging to
// shareDrift as populations grow — large programs are held to the
// tight bound, small ones are not failed on noise.
func driftBound(na, nb uint64) float64 {
	return shareDrift + 1/math.Sqrt(float64(na)) + 1/math.Sqrt(float64(nb))
}

// statistical reports whether an abort cause carries statistical
// hot-spot information for the period-stability invariant. Ambient
// causes are injected noise. Sync aborts are excluded too: a section
// with an unfriendly instruction aborts on every single attempt, so
// its abort events form a deterministic periodic comb, and sampling a
// periodic comb with a periodic counter aliases — the sampled share
// then depends on the grid phase, not on program behavior. (The stm
// mix's slow-path-forcing templates are built entirely from such
// sections.) Conflict and capacity aborts remain genuinely
// timing-dependent and are held to the drift bound.
func statistical(c htm.Cause) bool {
	return !c.Ambient() && c != htm.Sync
}

func appAbortSamples(r *analyzer.Report) uint64 {
	var n uint64
	for c, v := range r.Totals.AbortCount {
		if statistical(htm.Cause(c)) {
			n += v
		}
	}
	return n
}

// regionShares aggregates application abort weight by generated
// region: each context collapses to the region owning its outermost
// generated frame; contexts entirely inside the runtime (lock spin
// under tm_begin) collapse to "runtime". Shares are normalized over
// the total.
func regionShares(r *analyzer.Report) map[string]float64 {
	weights := make(map[string]uint64)
	var total uint64
	r.Merged.Walk(func(n *core.Node, _ int) {
		var w uint64
		for c, v := range n.Data.AbortWeight {
			if statistical(htm.Cause(c)) {
				w += v
			}
		}
		if w == 0 {
			return
		}
		key := "runtime"
		for _, f := range n.Frames() {
			if id, ok := progen.FrameRegion(f.Fn); ok {
				key = fmt.Sprintf("r%d", id)
				break
			}
		}
		weights[key] += w
		total += w
	})
	shares := make(map[string]float64, len(weights))
	for k, w := range weights {
		shares[k] = float64(w) / float64(total)
	}
	return shares
}

// topShares returns the topK region keys by share, ties broken by
// name for determinism.
func topShares(shares map[string]float64) []string {
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if shares[keys[i]] != shares[keys[j]] {
			return shares[keys[i]] > shares[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > topK {
		keys = keys[:topK]
	}
	return keys
}

// fingerprintDiff compares two merged profiles as canonical
// context->metrics maps. Child insertion order may legitimately differ
// under permuted merges, so the comparison is structural, not
// rendered-byte.
func fingerprintDiff(a, b *analyzer.Report) string {
	if a.Totals != b.Totals {
		return fmt.Sprintf("totals differ: %+v vs %+v", a.Totals, b.Totals)
	}
	af, bf := fingerprint(a), fingerprint(b)
	if len(af) != len(bf) {
		return fmt.Sprintf("merged trees have %d vs %d contexts", len(af), len(bf))
	}
	for path, m := range af {
		if bm, ok := bf[path]; !ok {
			return fmt.Sprintf("context %q missing from permuted profile", path)
		} else if m != bm {
			return fmt.Sprintf("context %q metrics differ: %+v vs %+v", path, m, bm)
		}
	}
	return ""
}

func fingerprint(r *analyzer.Report) map[string]core.Metrics {
	fp := make(map[string]core.Metrics)
	r.Merged.Walk(func(n *core.Node, _ int) {
		fp[analyzer.HotContext{Frames: n.Frames()}.Path()] = n.Data
	})
	return fp
}

// faultDrift applies the chaos-suite classification bound: r_cs and
// each time-decomposition share must stay within faultDriftBound of
// the fault-free run.
func faultDrift(clean, faulted *analyzer.Report) []string {
	type check struct {
		name        string
		clean, with float64
	}
	checks := []check{{"r_cs", clean.Rcs(), faulted.Rcs()}}
	cs, fs := clean.TimeShares(), faulted.TimeShares()
	for md := rtm.ModeHTM; md < rtm.NumModes; md++ {
		if md.Base() == md {
			checks = append(checks, check{md.String() + "-share", cs[md], fs[md]})
		}
	}
	var violations []string
	for _, c := range checks {
		if d := math.Abs(c.clean - c.with); d > faultDriftBound {
			violations = append(violations, fmt.Sprintf(
				"fault-drift: %s moved %.3f under low-fault injection (%.3f vs %.3f)",
				c.name, d, c.with, c.clean))
		}
	}
	return violations
}

func serialize(r *analyzer.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := profile.FromReport(r).Write(&buf); err != nil {
		return nil, fmt.Errorf("serialize profile: %w", err)
	}
	return buf.Bytes(), nil
}

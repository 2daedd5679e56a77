package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

// runs groups a record file's values: workload → metric → samples.
type runs map[string]map[string][]sample

func group(recs []record) runs {
	g := runs{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			g.add(r, name, m.Value)
		}
	}
	return g
}

// groupUncalibrated groups the records' uncalibrated metrics.
func groupUncalibrated(recs []record) runs {
	g := runs{}
	for _, r := range recs {
		for name, x := range r.Uncalibrated {
			g.add(r, name, x)
		}
	}
	return g
}

func (g runs) add(r record, name string, x float64) {
	if g[r.Workload] == nil {
		g[r.Workload] = map[string][]sample{}
	}
	g[r.Workload][name] = append(g[r.Workload][name], sample{r.Seed, x})
}

func seriesOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// iqrFrac is the distance between the quartiles as a share of the
// median: the run-to-run spread a bound is judged against.
func iqrFrac(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], math.Abs(q[1]))
}

// worseBy is how much b is worse than a, as a share of a; negative
// when b is better.
func worseBy(a, b float64, better string) float64 {
	d := ratio(b-a, math.Abs(a))
	if better == "higher" {
		return -d
	}
	return d
}

// verdict judges B against A by the choosing-metrics rules: a metric
// whose spread exceeds its bound is unresolved unless every B run beats
// every A run; otherwise B is worse past the bound, better when its
// median moved by more than A's spread and it won nine tenths of the
// seed-matched pairs, and the same in between.
func verdict(a, b []sample, m specMetric) string {
	as, bs := seriesOf(a), seriesOf(b)
	change := worseBy(median(as), median(bs), m.Better)
	beats := func(x, y float64) bool { return worseBy(y, x, m.Better) < 0 }
	allBetter := true
	for _, x := range bs {
		for _, y := range as {
			allBetter = allBetter && beats(x, y)
		}
	}
	bySeed := map[int64]float64{}
	for _, s := range a {
		bySeed[s.seed] = s.value
	}
	wins, pairs := 0, 0
	for _, s := range b {
		if y, ok := bySeed[s.seed]; ok {
			pairs++
			if beats(s.value, y) {
				wins++
			}
		}
	}
	switch {
	case iqrFrac(as) > m.Bound || iqrFrac(bs) > m.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case -change > iqrFrac(as) && pairs > 0 && float64(wins) >= 0.9*float64(pairs):
		return "better"
	}
	return "same"
}

// compareFiles prints, per (workload, metric), both sides' medians,
// quartiles and §7.1 trimmed means, the bound and a verdict, then
// whether the output digests both sides share are equal.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	recA, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	recB, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	a, b := group(recA), group(recB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tA trimmed\tB median [q1, q3]\tB trimmed\tchange\tbound\tverdict")
	bad := 0
	for _, wl := range sortedKeys(a) {
		for _, m := range append(sp.EndToEnd[:len(sp.EndToEnd):len(sp.EndToEnd)], sp.PerLayer...) {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			as, bs := seriesOf(av), seriesOf(bv)
			qa, qb := quartiles(as), quartiles(bs)
			v, bound := "-", "-"
			if m.Bound > 0 {
				v, bound = verdict(av, bv, m), fmt.Sprintf("%.0f%%", 100*m.Bound)
				if v == "worse" || v == "unresolved" {
					bad++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g\t%.4g [%.4g, %.4g]\t%.4g\t%+.1f%%\t%s\t%s\n",
				wl, m.Name, qa[1], qa[0], qa[2], trimmedMean(as), qb[1], qb[0], qb[2], trimmedMean(bs),
				100*ratio(qb[1]-qa[1], math.Abs(qa[1])), bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	same, differ := compareDigests(recA, recB)
	fmt.Fprintf(w, "digests: %d shared, %d differ\n", same+len(differ), len(differ))
	for _, k := range differ {
		fmt.Fprintf(w, "  digest differs: %s\n", k)
	}
	fmt.Fprintf(w, "rows worse or unresolved: %d\n", bad)
	return nil
}

// compareDigests returns how many digests both files hold equal, and
// the keys whose digests differ (within a file or across the two).
func compareDigests(a, b []record) (int, []string) {
	index := func(recs []record) (map[string]string, map[string]bool) {
		d, conflict := map[string]string{}, map[string]bool{}
		for _, r := range recs {
			for k, v := range r.Digests {
				k = r.Workload + " " + k
				if prev, ok := d[k]; ok && prev != v {
					conflict[k] = true
				}
				d[k] = v
			}
		}
		return d, conflict
	}
	da, ca := index(a)
	db, cb := index(b)
	same := 0
	var differ []string
	for _, k := range sortedKeys(da) {
		vb, ok := db[k]
		switch {
		case ca[k] || cb[k] || (ok && vb != da[k]):
			differ = append(differ, k)
		case ok:
			same++
		}
	}
	return same, differ
}

// summarizeFile prints, per (workload, metric) of a record file, the
// median, quartiles, the spread between quartiles as a share of the
// median, and max/min-1, with the host it ran on; and the same for the
// end-to-end metrics without the host calibration. Its output is the
// reference block in reference.json.
func summarizeFile(w io.Writer, path string) error {
	recs, err := loadRecords(path)
	if err != nil {
		return err
	}
	type stat struct {
		Runs    int     `json:"runs"`
		Median  float64 `json:"median"`
		Q1      float64 `json:"q1"`
		Q3      float64 `json:"q3"`
		IQRFrac float64 `json:"iqr_frac"`
		MaxMin  float64 `json:"max_over_min_minus_1"`
		Trimmed float64 `json:"trimmed_mean"`
	}
	summary := func(g runs) map[string]map[string]stat {
		out := map[string]map[string]stat{}
		for wl, metrics := range g {
			out[wl] = map[string]stat{}
			for name, ss := range metrics {
				xs := sorted(seriesOf(ss))
				q := quartiles(xs)
				out[wl][name] = stat{
					Runs: len(xs), Median: q[1], Q1: q[0], Q3: q[2], IQRFrac: iqrFrac(xs),
					MaxMin: ratio(xs[len(xs)-1], xs[0]) - 1, Trimmed: trimmedMean(xs),
				}
			}
		}
		return out
	}
	out := struct {
		Go           string                     `json:"go"`
		Nproc        int                        `json:"nproc"`
		Workloads    map[string]map[string]stat `json:"workloads"`
		Uncalibrated map[string]map[string]stat `json:"uncalibrated"`
	}{runtime.Version(), runtime.NumCPU(), summary(group(recs)), summary(groupUncalibrated(recs))}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// sortedKeys keeps map order out of the output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Command benchdiff guards against performance regressions: it parses
// `go test -bench` text output and compares against a checked-in JSON
// baseline. Two metric families are tracked per benchmark: ns/op
// (lower is better; the best repetition is the minimum) and any
// custom "/sec" throughput metric reported via b.ReportMetric (higher
// is better; the best repetition is the maximum). Throughput entries
// are keyed "<name> <unit>" in the baseline. Any benchmark worse than
// its baseline by more than the threshold — slower, or less
// throughput — fails the run: the CI bench-regression gate.
//
// -ratio adds a ratio gate on the current run: the first metric's
// value divided by the second must reach the given minimum. CI uses it
// to hold the STM, pmem and elision throughput headlines against the
// plain hardware path.
//
//	go test -bench . -benchtime=3x -count=3 ./internal/machine | benchdiff -baseline BENCH_baseline.json
//	go test -bench . -benchtime=3x -count=3 ./... | benchdiff -baseline BENCH_baseline.json -update
//	benchdiff -ratio "BenchmarkSTM/stm cs/sec|BenchmarkSTM/htm cs/sec|0.25" bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line; the -N GOMAXPROCS
// suffix is stripped so baselines survive runner core-count changes.
// The tail holds alternating value/unit columns (ns/op, B/op, custom
// metrics).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(.*)$`)

// higherBetter reports whether a metric key is a throughput ("/sec")
// entry, where regressions point down instead of up.
func higherBetter(key string) bool {
	i := strings.LastIndex(key, " ")
	return i >= 0 && strings.Contains(key[i+1:], "/sec")
}

// parse reads benchmark output, returning the best value observed per
// metric key: minimum ns/op (it bounds the true cost from above with
// the fewest scheduling artifacts on shared runners) and maximum
// throughput. ns/op is keyed by bare benchmark name; throughput
// metrics are keyed "<name> <unit>". Other columns (B/op, allocs/op)
// are ignored.
func parse(r io.Reader) (map[string]float64, error) {
	best := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			var key string
			switch {
			case unit == "ns/op":
				key = m[1]
			case strings.Contains(unit, "/sec"):
				key = m[1] + " " + unit
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad %s in %q: %w", unit, sc.Text(), err)
			}
			cur, ok := best[key]
			if !ok || (higherBetter(key) && v > cur) || (!higherBetter(key) && v < cur) {
				best[key] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// ratioGate is one -ratio constraint: current[num]/current[den] must
// be at least min.
type ratioGate struct {
	num, den string
	min      float64
}

func parseRatio(spec string) (ratioGate, error) {
	parts := strings.Split(spec, "|")
	if len(parts) != 3 {
		return ratioGate{}, fmt.Errorf("benchdiff: -ratio wants \"numerator|denominator|min\", got %q", spec)
	}
	min, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return ratioGate{}, fmt.Errorf("benchdiff: -ratio minimum %q: %w", parts[2], err)
	}
	return ratioGate{num: parts[0], den: parts[1], min: min}, nil
}

// check evaluates the gate against parsed results, returning a status
// line and whether the gate failed.
func (g ratioGate) check(current map[string]float64) (string, bool) {
	num, okN := current[g.num]
	den, okD := current[g.den]
	if !okN || !okD {
		return fmt.Sprintf("MISSING  ratio %s / %s: metric not in input", g.num, g.den), true
	}
	if den == 0 {
		return fmt.Sprintf("FAIL     ratio %s / %s: denominator is zero", g.num, g.den), true
	}
	ratio := num / den
	status := "ok"
	failed := false
	if ratio < g.min {
		status, failed = "FAIL", true
	}
	return fmt.Sprintf("%-8s ratio %s / %s = %.2f (min %.2f)", status, g.num, g.den, ratio, g.min), failed
}

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline JSON path")
		update    = flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated relative regression (slower ns/op or lower /sec)")
	)
	var gates []ratioGate
	flag.Func("ratio", `ratio gate "numerator|denominator|min" on the current run (repeatable)`, func(spec string) error {
		g, err := parseRatio(spec)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-baseline path] [-update] [-threshold r] [-ratio spec]... [bench-output.txt]")
		os.Exit(2)
	}

	current, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("benchdiff: no benchmark results in input"))
	}

	if *update {
		out, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baseline, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d baselines to %s\n", len(current), *baseline)
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	base := make(map[string]float64)
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("benchdiff: %s: %w", *baseline, err))
	}

	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := false
	for _, n := range names {
		cur, ok := current[n]
		if !ok {
			fmt.Printf("MISSING  %-70s baseline=%.1f, not in input\n", n, base[n])
			failed = true
			continue
		}
		unit := "ns/op"
		if i := strings.LastIndex(n, " "); i >= 0 && strings.Contains(n[i+1:], "/sec") {
			unit = n[i+1:]
		}
		// Signed regression: positive means worse, in either direction.
		regression := cur/base[n] - 1
		if higherBetter(n) {
			regression = base[n]/cur - 1
		}
		status := "ok"
		if regression > *threshold {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-8s %-70s %14.1f -> %14.1f %s (%+.1f%% vs baseline)\n",
			status, n, base[n], cur, unit, 100*(cur/base[n]-1))
	}
	for n := range current {
		if _, ok := base[n]; !ok {
			fmt.Printf("NEW      %-70s %.1f (run with -update to record)\n", n, current[n])
		}
	}
	for _, g := range gates {
		line, bad := g.check(current)
		fmt.Println(line)
		failed = failed || bad
	}
	if failed {
		fmt.Printf("benchdiff: regression beyond %.0f%% threshold or ratio gate missed\n", 100**threshold)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object the benchmark prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it: the printed result plus what
// -compare needs to line runs up and check that outputs agree.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result
	// Digests maps "<job>@<seed>" to the SHA-256 of that job's outputs.
	Digests map[string]string `json:"digests,omitempty"`
	// Uncalibrated holds the run's end-to-end metrics without the host
	// calibration, so reference.json can show what it does to the spread.
	Uncalibrated values `json:"uncalibrated,omitempty"`
}

// The metric tables mirror BENCHMARK.json (bench_test.go holds them
// equal). Every workload prints every metric of its mode; a layer the
// workload does not exercise reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
}

var perLayer = []struct{ name, unit string }{
	{"htmbench.build_ms", "ms"},
	{"htmbench.check_ms", "ms"},
	{"machine.run_native_ms", "ms"},
	{"machine.run_profiled_ms", "ms"},
	{"machine.run_cpu_ms", "ms"},
	{"machine.cpu_per_wall", "ratio"},
	{"machine.ns_per_kcycle", "ns"},
	{"machine.sim_kcycles", "count"},
	{"machine.host_overhead_x", "ratio"},
	{"machine.sim_overhead_pct", "%"},
	{"rtm.commit_ratio", "ratio"},
	{"rtm.fallback_ratio", "ratio"},
	{"rtm.stm_commit_ratio", "ratio"},
	{"core.samples", "count"},
	{"core.handle_ms", "ms"},
	{"core.handle_ns_per_sample", "ns"},
	{"core.pathcache_hit_ratio", "ratio"},
	{"core.cct_nodes", "count"},
	{"analyzer.analyze_ms", "ms"},
	{"decision.evaluate_ms", "ms"},
	{"viewer.render_ms", "ms"},
	{"telemetry.publish_ms", "ms"},
	{"profile.encode_ms", "ms"},
	{"profile.bytes", "bytes"},
	{"profile.save_ms", "ms"},
	{"profile.load_ms", "ms"},
	{"profile.report_ms", "ms"},
	{"fleet.validate_ms", "ms"},
	{"fleet.replay_ms_per_shard", "ms"},
	{"fleet.drain_s", "s"},
	{"fleet.max_merge_lag", "count"},
	{"fleet.deferred_frac", "ratio"},
	{"fleet.journal_bytes_per_shard", "bytes"},
	{"fleet.ingest_ms", "ms"},
	{"fleet.ack_p50_ms", "ms"},
	{"fleet.ack_p99_ms", "ms"},
	{"fleet.query_p50_ms", "ms"},
	{"fleet.top_p50_ms", "ms"},
	{"fleet.profile_p50_ms", "ms"},
	{"fleet.query_p99_ms", "ms"},
	{"fleet.profile_bytes", "bytes"},
	{"http.roundtrip_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.maxrss_mb", "MiB"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.host_speed", "ratio"},
}

// values collects a run's metrics by name before they are printed.
type values map[string]float64

// metricsFor returns exactly the metrics of one mode: the end-to-end
// table for an untraced run, the per-layer table for a traced one.
func (v values) metricsFor(traced bool) (map[string]metric, error) {
	table := endToEnd
	if traced {
		table = perLayer
	}
	out := make(map[string]metric, len(table))
	for _, m := range table {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok && !inTable(name) {
			return nil, fmt.Errorf("metric %q is in neither table", name)
		}
	}
	return out, nil
}

// scaleLayers brings a traced run's per-layer times and rates to the
// reference host's speed with the run's calibration scale (the
// end-to-end metrics are scaled per operation as they are measured).
func (v values) scaleLayers(scale float64) {
	v["bench.host_speed"] = scale
	for _, m := range perLayer {
		switch m.unit {
		case "s", "ms", "ns":
			v[m.name] *= scale
		case "1/s":
			v[m.name] /= scale
		}
	}
}

func inTable(name string) bool {
	for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if m.name == name {
			return true
		}
	}
	return false
}

// tally counts attempted and failed operations. A failure is logged
// and the run goes on, so the counts cover the whole run.
type tally struct {
	attempted, failed int
}

func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
		return false
	}
	return true
}

func (t *tally) result(v values, traced bool) (Result, error) {
	ms, err := v.metricsFor(traced)
	if err != nil {
		return Result{}, err
	}
	return Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p <= 1); 0 for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// geomean is the geometric mean of positive values; 0 for no data.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the three quartile cut points the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match ones computed there.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// trimmedMean is the paper's §7.1 protocol: drop the smallest and the
// largest value and average the rest (a plain mean below three values).
func trimmedMean(xs []float64) float64 {
	s := sorted(xs)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	if len(s) == 0 {
		return 0
	}
	return sum / float64(len(s))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is a snapshot of the counters the go.* metrics difference
// across the timed phase.
type goStats struct {
	gcCPU      float64 // seconds, runtime/metrics estimate
	allocBytes float64
	cpu        time.Duration // process user+sys
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goStats{gcCPU: num(s[0].Value), allocBytes: num(s[1].Value), cpu: cpuTime()}
}

// setGoMetrics records the runtime's share of the timed phase: GC CPU
// over process CPU, and heap bytes allocated per operation.
func setGoMetrics(v values, before goStats, ops int) {
	after := readGoStats()
	v["go.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, (after.cpu - before.cpu).Seconds())
	v["go.alloc_mb_per_op"] = ratio((after.allocBytes-before.allocBytes)/(1<<20), float64(ops))
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

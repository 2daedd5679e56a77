package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny keeps two cheap jobs of each machine workload and two programs
// for fleet-ingest's shards.
var tiny = map[string]bool{
	"splash2/barnes": true, "splash2/water": true,
	"pmem:pmem/kv": true, "pmem:pmem/log": true,
}

func loadBenchmarkSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestMetricTablesMatchSpec holds the tables the program prints from
// equal to BENCHMARK.json.
func TestMetricTablesMatchSpec(t *testing.T) {
	sp := loadBenchmarkSpec(t)
	check := func(kind string, spec []specMetric, table []struct{ name, unit string }) {
		if len(spec) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(spec), len(table))
			return
		}
		for i, m := range spec {
			if m.Name != table[i].name || m.Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, m.Name, m.Unit, table[i].name, table[i].unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks what each run prints.
func TestWorkloadsTiny(t *testing.T) {
	sp := loadBenchmarkSpec(t)
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			digests := map[bool]map[string]string{}
			for _, traced := range []bool{false, true} {
				// Machine workloads stop after their first round; the
				// fleet uploader stops at maxShards.
				cfg := config{
					workload: name, seed: 1, traced: traced, workdir: t.TempDir(),
					only: tiny, maxShards: 200, setupRounds: 1,
				}
				if name == "fleet-ingest" {
					cfg.seconds = time.Minute
				}
				rec, spans, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, rec.Correct, rec.Attempted, rec.Failed)
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(rec.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: %s in %s, want %s", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s = %v, want a positive value", m.Name, got.Value)
					case !traced && rec.Uncalibrated[m.Name] <= 0:
						t.Errorf("uncalibrated %s = %v, want a positive value", m.Name, rec.Uncalibrated[m.Name])
					}
				}
				digests[traced] = rec.Digests
				if traced {
					checkTrace(t, spans)
				}
			}
			if name != "fleet-ingest" {
				for k, v := range digests[false] {
					if tv, ok := digests[true][k]; !ok || tv != v {
						t.Errorf("digest %s: traced %q, untraced %q", k, tv, v)
					}
				}
			}
		})
	}
}

func checkTrace(t *testing.T, spans *recorder) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceFile(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace holds no events")
	}
	for _, e := range tr.TraceEvents {
		if e.Name == "" || e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("malformed event %+v", e)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

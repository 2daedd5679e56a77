package txsampler_test

// End-to-end telemetry determinism: for a fixed seed the Chrome trace
// and the deterministic metrics snapshot must be byte-identical across
// runs and invariant to the scheduler quantum, because every recorded
// value is virtual (cycle clocks, sequence clocks, exact counters) —
// the property the CI determinism job enforces on whole profile
// databases.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/htm"
	"txsampler/internal/profile"
	"txsampler/internal/telemetry"
	"txsampler/internal/viewer"
)

// traceRun profiles the workload with a tracer and registry attached
// and returns the exported trace bytes, the deterministic snapshot,
// and the report.
func traceRun(t *testing.T, name string, seed int64, quantum int) ([]byte, []telemetry.MetricValue, *txsampler.Result) {
	t.Helper()
	tr := telemetry.NewTracer(0)
	reg := telemetry.NewRegistry()
	res, err := txsampler.Run(name, txsampler.Options{
		Seed: seed, Threads: 4, Profile: true, Quantum: quantum, Trace: tr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring overflowed (%d dropped); grow the capacity for this workload", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg.Snapshot(false), res
}

func TestTraceDeterministicAndQuantumInvariant(t *testing.T) {
	const seed = 11
	trace1, snap1, _ := traceRun(t, "synchro/linkedlist", seed, 0)
	trace2, snap2, _ := traceRun(t, "synchro/linkedlist", seed, 0)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("same-seed runs exported different traces")
	}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Fatalf("same-seed runs produced different snapshots:\n%v\n%v", snap1, snap2)
	}
	traceQ, snapQ, _ := traceRun(t, "synchro/linkedlist", seed, 1)
	if !bytes.Equal(trace1, traceQ) {
		t.Fatal("trace changed under per-op quantum; run-slice boundaries must be quantum-invariant")
	}
	if !reflect.DeepEqual(snap1, snapQ) {
		t.Fatal("metrics snapshot changed under per-op quantum")
	}
}

// TestSchedulerSelfReport checks the scheduler's self-report against
// the trace it recorded: every canonical interleaving ends one run
// slice and every thread ends one more at exit, so interleavings plus
// threads equals the run events. Interleavings and spin-wait
// iterations are equal under the gate-point schedule and the per-op
// oracle; handoffs differ (the oracle hands off after every
// operation) and so do skipped spin iterations (the oracle runs every
// one through a gate), so both are volatile and stay out of the
// deterministic snapshot. All four render in the text and HTML
// self-report.
func TestSchedulerSelfReport(t *testing.T) {
	const seed = 11
	metric := func(snap []telemetry.MetricValue, name string) uint64 {
		for _, mv := range snap {
			if mv.Name == name {
				return mv.Value
			}
		}
		t.Fatalf("snapshot has no %s", name)
		return 0
	}
	deterministic := func(snap []telemetry.MetricValue) (interleavings, spins uint64) {
		for _, mv := range snap {
			if mv.Name == "machine.sched.handoffs" || mv.Name == "machine.spin.skipped" {
				t.Fatalf("volatile %s leaked into the deterministic snapshot", mv.Name)
			}
		}
		return metric(snap, "machine.sched.interleavings"), metric(snap, "machine.spin.iterations")
	}
	trace, snap, res := traceRun(t, "synchro/linkedlist", seed, 0)
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &out); err != nil {
		t.Fatal(err)
	}
	var runs, spinWaits uint64
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Name == "run" && ev.PID == telemetry.PIDScheduler:
			runs++
		case ev.Name == "spin-wait" && ev.PID == telemetry.PIDMachine:
			spinWaits++
		}
	}
	got, spins := deterministic(snap)
	if got == 0 || spins == 0 || spinWaits == 0 {
		t.Fatalf("%d interleavings, %d spin iterations, %d spin-wait spans on a 4-thread contended run; want all nonzero",
			got, spins, spinWaits)
	}
	if got+uint64(res.Threads) != runs {
		t.Fatalf("interleavings %d + threads %d != %d run events", got, res.Threads, runs)
	}
	if skipped := metric(res.Report.Self, "machine.spin.skipped"); skipped == 0 || skipped > spins {
		t.Fatalf("%d spin iterations skipped of %d; want some, at most all", skipped, spins)
	}
	_, snapQ, resQ := traceRun(t, "synchro/linkedlist", seed, 1)
	if q, qs := deterministic(snapQ); q != got || qs != spins {
		t.Fatalf("interleavings %d and spin iterations %d under Quantum 1, %d and %d under the default", q, qs, got, spins)
	}
	if skipped := metric(resQ.Report.Self, "machine.spin.skipped"); skipped != 0 {
		t.Fatalf("Quantum 1 skipped %d spin iterations; the oracle runs every one", skipped)
	}

	var text, html bytes.Buffer
	viewer.SelfReport(&text, res.Report)
	if err := viewer.HTML(&html, res.Report, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"machine.sched.interleavings", "machine.sched.handoffs", "machine.spin.iterations", "machine.spin.skipped"} {
		if !strings.Contains(text.String(), name) || !strings.Contains(html.String(), name) {
			t.Errorf("%s missing from the text or HTML self-report", name)
		}
	}
}

func TestTraceExportIsValidChromeJSON(t *testing.T) {
	trace, _, _ := traceRun(t, "synchro/linkedlist", 3, 0)
	var out struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range out.TraceEvents {
		if ev.Phase != "X" && ev.Phase != "i" && ev.Phase != "M" {
			t.Fatalf("unexpected event phase %q", ev.Phase)
		}
		kinds[ev.Name] = true
	}
	// A profiled run must show scheduler tenures, transaction regions,
	// PMU interrupts, and the frontend phases.
	for _, want := range []string{"run", "tx", "analyze:reduce"} {
		if !kinds[want] {
			t.Fatalf("trace has no %q events; got %v", want, kinds)
		}
	}
}

func TestSelfReportSerializedWithoutVolatileEntries(t *testing.T) {
	_, snap, res := traceRun(t, "synchro/linkedlist", 5, 0)
	if len(res.Report.Self) == 0 {
		t.Fatal("report has no self-metrics")
	}
	db := profile.FromReport(res.Report)
	if len(db.Telemetry) != len(snap) {
		t.Fatalf("database telemetry has %d entries, deterministic snapshot has %d", len(db.Telemetry), len(snap))
	}
	for _, mv := range db.Telemetry {
		if mv.Name == "run.wall_ns" || mv.Volatile {
			t.Fatalf("volatile metric %q leaked into the serialized profile", mv.Name)
		}
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := profile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Report().Self) != len(db.Telemetry) {
		t.Fatal("self-report did not round-trip through the database")
	}
}

func TestDisabledTelemetryMatchesBaselineResults(t *testing.T) {
	// A run with telemetry attached must not perturb the simulation:
	// ground truth and cycle counts are identical with and without.
	bare, err := txsampler.Run("synchro/linkedlist", txsampler.Options{Seed: 9, Threads: 4, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, traced := traceRun(t, "synchro/linkedlist", 9, 0)
	if bare.ElapsedCycles != traced.ElapsedCycles || bare.TotalCycles != traced.TotalCycles {
		t.Fatalf("telemetry perturbed the run: %d/%d vs %d/%d cycles",
			bare.ElapsedCycles, bare.TotalCycles, traced.ElapsedCycles, traced.TotalCycles)
	}
	if !reflect.DeepEqual(bare.GroundTruth, traced.GroundTruth) {
		t.Fatal("telemetry perturbed ground truth")
	}
}

// TestSelfReportMatchesMachine is the self-report's ground-truth gate:
// on 14-thread suite programs, run natively and profiled, each
// deterministic machine counter that has a second source must equal
// it — commits and aborts by cause against GroundTruth, the cycle
// totals against the Result — and every sample the machine delivered
// must reach the collector.
func TestSelfReportMatchesMachine(t *testing.T) {
	for _, name := range []string{"stamp/vacation", "synchro/linkedlist", "app/leveldb", "micro/false-sharing"} {
		for _, profiled := range []bool{false, true} {
			reg := telemetry.NewRegistry()
			res, err := txsampler.Run(name, txsampler.Options{Seed: 1, Threads: 14, Profile: profiled, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s profiled=%v", name, profiled)
			got := map[string]uint64{}
			for _, mv := range reg.Snapshot(false) {
				got[mv.Name] = mv.Value
			}
			check := func(metric string, want uint64) {
				t.Helper()
				if v, ok := got[metric]; !ok || v != want {
					t.Errorf("%s: %s = %d (published %v), machine says %d", label, metric, v, ok, want)
				}
			}
			g := res.GroundTruth
			check("machine.commits", g.Commits)
			if g.Aborts[htm.None] != 0 {
				t.Errorf("%s: ground truth counts %d aborts without a cause", label, g.Aborts[htm.None])
			}
			for c := htm.None + 1; c < htm.NumCauses; c++ {
				check("machine.aborts."+c.String(), g.Aborts[c])
			}
			check("machine.cycles.total", res.TotalCycles)
			check("machine.cycles.elapsed", res.ElapsedCycles)
			if !profiled {
				check("machine.samples.delivered", 0)
				continue
			}
			if got["machine.samples.delivered"] == 0 {
				t.Errorf("%s: no sample delivered; the sample check is vacuous", label)
			}
			check("collector.samples.ingested", got["machine.samples.delivered"])
		}
	}
}

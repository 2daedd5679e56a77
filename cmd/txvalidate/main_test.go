package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunReportDeterministic: the CLI's acceptance contract — equal
// flags produce byte-identical, parseable JSON, on stdout and via -o.
func TestRunReportDeterministic(t *testing.T) {
	campaign := func() []byte {
		var out, errb bytes.Buffer
		if code := run([]string{"-n", "2", "-seed", "7"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.Bytes()
	}
	a, b := campaign(), campaign()
	if !bytes.Equal(a, b) {
		t.Fatal("equal flags produced different reports")
	}
	var rep struct {
		N         int `json:"n"`
		Aggregate struct {
			ContextRecovery float64 `json:"context_recovery"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.N != 2 || rep.Aggregate.ContextRecovery < 0.99 {
		t.Fatalf("implausible report: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	var errb bytes.Buffer
	if code := run([]string{"-n", "2", "-seed", "7", "-o", path}, discard(t), &errb); code != 0 {
		t.Fatalf("-o exit %d: %s", code, errb.String())
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, onDisk) {
		t.Fatal("-o file differs from stdout report")
	}
}

// TestRunBaselineGate: a passing baseline exits 0 and says so; an
// impossible floor exits non-zero naming the metric; a missing file is
// an error.
func TestRunBaselineGate(t *testing.T) {
	dir := t.TempDir()
	ok := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(ok, []byte(`{"min_context_recovery":0.9,"max_cause_drift":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	if code := run([]string{"-n", "1", "-seed", "3", "-baseline", ok}, discard(t), &errb); code != 0 {
		t.Fatalf("healthy baseline exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "baseline check passed") {
		t.Fatalf("no pass confirmation: %s", errb.String())
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"min_context_recovery":1.01,"max_cause_drift":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-n", "1", "-seed", "3", "-baseline", bad}, discard(t), &errb); code == 0 {
		t.Fatal("impossible baseline accepted")
	}
	if !strings.Contains(errb.String(), "context_recovery") {
		t.Fatalf("regression does not name the metric: %s", errb.String())
	}

	errb.Reset()
	if code := run([]string{"-n", "1", "-seed", "3", "-baseline", filepath.Join(dir, "missing.json")}, discard(t), &errb); code == 0 {
		t.Fatal("missing baseline file accepted")
	}
}

// TestRunFlagErrors: invalid flags and a non-positive -n exit 2
// without running a campaign.
func TestRunFlagErrors(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-n", "0"}, discard(t), &errb); code != 2 {
		t.Fatalf("-n 0 exit %d, want 2", code)
	}
	if code := run([]string{"-definitely-not-a-flag"}, discard(t), &errb); code != 2 {
		t.Fatalf("unknown flag exit %d, want 2", code)
	}
	// -mix is the only generation knob: per-feature bias flags are
	// unknown flags.
	for _, gone := range []string{"-stm-bias", "-pmem-bias", "-elision-bias"} {
		if code := run([]string{gone}, discard(t), &errb); code != 2 {
			t.Fatalf("%s exit %d, want 2", gone, code)
		}
	}
	errb.Reset()
	if code := run([]string{"-mix", "bogus"}, discard(t), &errb); code != 2 {
		t.Fatalf("-mix bogus exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "default, stm, pmem, stm+pmem, elide, stm+elide, pmem+elide, stm+pmem+elide") {
		t.Fatalf("-mix bogus does not name the valid mixes: %s", errb.String())
	}
	if code := run([]string{"-o", filepath.Join(t.TempDir(), "no", "such", "dir", "r.json"), "-n", "1"}, discard(t), &errb); code != 1 {
		t.Fatalf("uncreatable -o exit %d, want 1", code)
	}
}

func discard(t *testing.T) *bytes.Buffer {
	t.Helper()
	return &bytes.Buffer{}
}

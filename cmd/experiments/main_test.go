package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runTable1 runs the command's one section that runs no machine.
func runTable1(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), append(args, "-table1"), &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	return out.String()
}

// TestRunNamesHybridPolicy: a lock-only run prints its sections alone,
// so experiments_output.txt keeps its bytes; any other policy is named
// on one line before the first section, over the same section output.
func TestRunNamesHybridPolicy(t *testing.T) {
	lockOnly := runTable1(t)
	if !strings.HasPrefix(lockOnly, "=== Table 1: CLOMP-TM inputs ===\n") {
		t.Fatalf("lock-only output does not start with its section:\n%s", lockOnly)
	}
	if got := runTable1(t, "-hybrid-policy", "lock-only"); got != lockOnly {
		t.Fatalf("explicit lock-only output differs from the default:\n%s", got)
	}
	for _, pol := range []string{"stm-fallback", "serialize-on-conflict", "sandboxed"} {
		got := runTable1(t, "-hybrid-policy", pol)
		if want := "hybrid policy: " + pol + "\n" + lockOnly; got != want {
			t.Errorf("%s output:\n%s\nwant:\n%s", pol, got, want)
		}
	}
}

// TestRunFlagErrors: a bad flag value exits 2 before any section runs,
// with one "experiments: " prefix on stderr (the flag package reports
// an unknown flag in its own words).
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-hybrid-policy", "bogus", "-table1"},
		{"-parallel", "0", "-table1"},
		{"-case", "bogus", "-table1"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a section ran: %s", args, out.String())
		}
		msg := errb.String()
		if msg == "" {
			t.Errorf("%v: nothing on stderr", args)
		}
		if args[0] != "-nosuchflag" && (!strings.HasPrefix(msg, "experiments: ") || strings.Count(msg, "experiments: ") != 1) {
			t.Errorf("%v: stderr %q, want one \"experiments: \" prefix", args, msg)
		}
	}
}

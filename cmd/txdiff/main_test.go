package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/experiments"
	"txsampler/internal/profile"
)

func saveProfile(t *testing.T, name string, seed int64) string {
	t.Helper()
	res, err := txsampler.Run(name, txsampler.Options{Threads: 2, Seed: seed, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := profile.FromReport(res.Report).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDiffsSavedDatabases: the main path — load two databases,
// render the delta.
func TestRunDiffsSavedDatabases(t *testing.T) {
	before := saveProfile(t, "micro/low-abort", 1)
	after := saveProfile(t, "micro/true-sharing", 1)
	var out, errb bytes.Buffer
	if code := run([]string{before, after}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "micro/low-abort") || !strings.Contains(out.String(), "micro/true-sharing") {
		t.Fatalf("diff header incomplete:\n%s", out.String())
	}
}

// TestRunRerunsWorkloads: -run profiles the named workloads instead of
// loading files.
func TestRunRerunsWorkloads(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "-threads", "2", "micro/low-abort", "micro/low-abort"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "micro/low-abort") {
		t.Fatalf("diff output incomplete:\n%s", out.String())
	}
}

// TestRunErrors: bad usage exits 2; unreadable databases and unknown
// workloads exit 1.
func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one-arg"}, &out, &errb); code != 2 {
		t.Fatalf("one arg exit %d, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag exit %d, want 2", code)
	}
	if code := run([]string{"no-such.json", "nope.json"}, &out, &errb); code != 1 {
		t.Fatalf("missing database exit %d, want 1", code)
	}
	if code := run([]string{"-run", "bogus/none", "bogus/none"}, &out, &errb); code != 1 {
		t.Fatalf("unknown workload exit %d, want 1", code)
	}
}

// TestRunMergesShardSides: a diff side given as a directory (or a
// comma-separated list) is merged into one profile before diffing,
// and both spellings produce identical output. A campaign directory,
// journal included, is a side too.
func TestRunMergesShardSides(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, seed := range []int64{1, 2, 3} {
		res, err := txsampler.Run("micro/low-abort", txsampler.Options{Threads: 2, Seed: seed, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := profile.FromReport(res.Report).Save(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	after := saveProfile(t, "micro/true-sharing", 1)

	var dirOut, listOut, errb bytes.Buffer
	if code := run([]string{dir, after}, &dirOut, &errb); code != 0 {
		t.Fatalf("directory side exit %d: %s", code, errb.String())
	}
	if code := run([]string{strings.Join(paths, ","), after}, &listOut, &errb); code != 0 {
		t.Fatalf("list side exit %d: %s", code, errb.String())
	}
	if dirOut.String() != listOut.String() {
		t.Errorf("directory and list spellings diff differently:\n%s\n---\n%s", dirOut.String(), listOut.String())
	}
	if !strings.Contains(dirOut.String(), "micro/low-abort") {
		t.Errorf("merged side lost its program name:\n%s", dirOut.String())
	}

	// The same three shards written by a profile campaign, whose
	// journal sits beside them.
	camp := t.TempDir()
	rep, err := experiments.ProfileCampaign(io.Discard, experiments.CampaignConfig{
		Dir: camp, Workloads: []string{"micro/low-abort"}, Threads: 2, Seed: 1, Seeds: 3,
	})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("campaign: %v, report %+v", err, rep)
	}
	if _, err := os.Stat(filepath.Join(camp, experiments.JournalName)); err != nil {
		t.Fatal(err)
	}
	var campOut bytes.Buffer
	if code := run([]string{camp, after}, &campOut, &errb); code != 0 {
		t.Fatalf("campaign directory side exit %d: %s", code, errb.String())
	}
	if campOut.String() != dirOut.String() {
		t.Errorf("campaign directory diffs differently from its shards:\n%s\n---\n%s", campOut.String(), dirOut.String())
	}

	// An empty directory is a usage error, not a crash.
	if code := run([]string{t.TempDir(), after}, &dirOut, &errb); code != 1 {
		t.Errorf("empty directory exit %d, want 1", code)
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPaperClaimsHoldInCheckedInOutput checks the paper's claims, not
// only the bytes, in the checked-in `experiments -all` output (CI's
// determinism job diffs a fresh run against the same file): Figure 5's
// geometric-mean overhead stays under 10%, so does every Figure 6 row,
// Figure 8 agrees with the paper on every program, and every Table 2
// optimization is a measured speedup.
func TestPaperClaimsHoldInCheckedInOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "=== ") {
			cur = strings.SplitN(strings.TrimPrefix(line, "=== "), ":", 2)[0]
			continue
		}
		sections[cur] = append(sections[cur], line)
	}
	// numbers returns the first capture of re on each line of a
	// section as a number, failing when no line matches.
	numbers := func(section string, re *regexp.Regexp) []float64 {
		t.Helper()
		var out []float64
		for _, line := range sections[section] {
			if m := re.FindStringSubmatch(line); m != nil {
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					t.Fatalf("%s: %q: %v", section, line, err)
				}
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s: no line matches %v", section, re)
		}
		return out
	}

	geo := numbers("Figure 5", regexp.MustCompile(`geometric-mean overhead:\s*(-?[\d.]+)%`))
	if len(geo) != 1 || geo[0] >= 10 {
		t.Errorf("Figure 5 geometric-mean overhead %v%%, want one value under 10%%", geo)
	}
	rows := numbers("Figure 6", regexp.MustCompile(`threads: mean overhead\s*(-?[\d.]+)%`))
	if len(rows) != 5 {
		t.Errorf("Figure 6 has %d thread counts, want 5", len(rows))
	}
	for i, v := range rows {
		if v >= 10 {
			t.Errorf("Figure 6 row %d: mean overhead %.1f%%, want under 10%%", i+1, v)
		}
	}
	agree := regexp.MustCompile(`category agreement with the paper: (\d+)/(\d+)`)
	found := false
	for _, line := range sections["Figure 8"] {
		if m := agree.FindStringSubmatch(line); m != nil {
			found = true
			if m[1] != m[2] || m[1] == "0" {
				t.Errorf("Figure 8 agreement %s/%s, want n/n", m[1], m[2])
			}
		}
	}
	if !found {
		t.Error("Figure 8 has no agreement line")
	}
	speedups := numbers("Table 2", regexp.MustCompile(`measured=([\d.]+)x`))
	if len(speedups) != 10 {
		t.Errorf("Table 2 has %d rows, want 10", len(speedups))
	}
	for i, v := range speedups {
		if v <= 1 {
			t.Errorf("Table 2 row %d: measured %.2fx, want a speedup over 1.00x", i+1, v)
		}
	}
}

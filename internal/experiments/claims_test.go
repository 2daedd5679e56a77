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
// Figure 8 agrees with the paper on every program, every Table 2
// optimization is a measured speedup, and the §8 case studies find
// what the paper found.
func TestPaperClaimsHoldInCheckedInOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "experiments_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// Sections are keyed by their header up to the first colon, except
	// case studies: each is keyed by its whole "Case study: <program>"
	// header and keeps the report header that follows it.
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(raw), "\n") {
		if title, ok := strings.CutPrefix(line, "=== "); ok {
			title = strings.TrimSuffix(title, " ===")
			switch {
			case strings.HasPrefix(title, "Case study: "):
				cur = title
			case strings.HasPrefix(cur, "Case study: ") && strings.HasPrefix(title, "TxSampler report: "):
				// the study's own report: stay under the study
			default:
				cur = strings.SplitN(title, ":", 2)[0]
			}
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

	// §8.1, Figure 9: dedup's hottest abort context is the hash-chain
	// walk inside the transaction.
	const dedup, leveldb, histo = "Case study: parsec/dedup", "Case study: app/leveldb", "Case study: parboil/histo-1"
	if hot := hottestAborts(t, sections, dedup); !strings.HasSuffix(hot[0], "begin_in_tx > hashtable_search:chain_walk") {
		t.Errorf("%s: hottest abort context %q, want the in-transaction hashtable_search:chain_walk", dedup, hot[0])
	}
	// §8.2: LevelDB's aborts come from the reference counting on the Get
	// path, and they are conflicts.
	hot := hottestAborts(t, sections, leveldb)
	for i, want := range []string{"Get > tm_begin > begin_in_tx > tm_begin:Unref", "Get > tm_begin > begin_in_tx > tm_begin:Ref"} {
		if len(hot) <= i || !strings.HasSuffix(hot[i], want) {
			t.Errorf("%s: hottest abort contexts %q, want #%d to end in %q", leveldb, hot, i+1, want)
		}
	}
	shares := regexp.MustCompile(`^abort weight shares: conflict=([\d.]+)% capacity=([\d.]+)% sync=([\d.]+)%$`)
	found = false
	for _, line := range sections[leveldb] {
		if m := shares.FindStringSubmatch(line); m != nil {
			found = true
			var v [3]float64
			for i := range v {
				v[i], _ = strconv.ParseFloat(m[i+1], 64)
			}
			if v[0] <= v[1] || v[0] <= v[2] {
				t.Errorf("%s: %q, want conflict the largest share", leveldb, line)
			}
		}
	}
	if !found {
		t.Errorf("%s: no abort weight shares line", leveldb)
	}
	// §8.3: histo-1's decision walk blames transaction overhead and
	// suggests merging transactions.
	walk := strings.Join(sections[histo], "\n")
	for _, want := range []string{"(2) large T_oh", "* Merge multiple small transactions"} {
		if !strings.Contains(walk, want) {
			t.Errorf("%s: decision walk lacks %q", histo, want)
		}
	}
}

// hottestAborts returns the contexts listed under the "hottest abort
// contexts:" line of a section's report, hottest first, failing when
// there are none.
func hottestAborts(t *testing.T, sections map[string][]string, section string) []string {
	t.Helper()
	report := sections[section]
	var out []string
	for i, line := range report {
		if line != "hottest abort contexts:" {
			continue
		}
		for _, ctx := range report[i+1:] {
			ctx, ok := strings.CutPrefix(ctx, "  ")
			if !ok {
				break
			}
			out = append(out, ctx)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no hottest abort contexts", section)
	}
	return out
}

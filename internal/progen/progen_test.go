package progen_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"txsampler"
	"txsampler/internal/progen"
)

// mixes is every generation mix: the default, each feature mix, and
// every combination of them.
func mixes(t *testing.T) []progen.Mix {
	t.Helper()
	var out []progen.Mix
	for _, name := range progen.Mixes() {
		m, err := progen.ParseMix(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	if len(out) != 8 {
		t.Fatalf("%d mixes, want the default plus 7 feature sets", len(out))
	}
	return out
}

// TestGenerateDeterministic: equal configs must yield equal programs,
// under every mix.
func TestGenerateDeterministic(t *testing.T) {
	for _, mix := range mixes(t) {
		for seed := int64(0); seed < 20; seed++ {
			a := progen.Generate(progen.Config{Seed: seed, Mix: mix})
			b := progen.Generate(progen.Config{Seed: seed, Mix: mix})
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: programs differ:\n%+v\n%+v", mix, seed, a, b)
			}
		}
	}
}

// featureTemplates spells out each feature mix's pinned kinds and draw
// pool independently of the generator's table; a combined mix pins
// its members' kinds in stm, pmem, elide order and draws from the
// union of their pools.
var featureTemplates = []struct {
	mix        progen.Mix
	pins, pool []progen.Kind
}{
	{progen.MixSTM, []progen.Kind{progen.KindStmConflict, progen.KindStmCapacity},
		[]progen.Kind{progen.KindStmConflict, progen.KindStmCapacity, progen.KindPrivate, progen.KindTrueShare, progen.KindSyscall}},
	{progen.MixPmem, []progen.Kind{progen.KindPmemKV, progen.KindPmemLog},
		[]progen.Kind{progen.KindPmemKV, progen.KindPmemLog, progen.KindPrivate, progen.KindTrueShare, progen.KindSyscall}},
	{progen.MixElide, []progen.Kind{progen.KindElideWin, progen.KindElideSyscall},
		[]progen.Kind{progen.KindElideWin, progen.KindElideRead, progen.KindElideSyscall, progen.KindElideCapacity}},
}

// TestGenerateVariety: across a window of seeds every mix must pin its
// templates to its first regions and draw every kind of its pool —
// otherwise a validation campaign is not exercising the op set it
// claims to — and its programs must report the features they use.
func TestGenerateVariety(t *testing.T) {
	for _, mix := range mixes(t) {
		var pins []progen.Kind
		pool := make(map[progen.Kind]bool)
		for _, f := range featureTemplates {
			if mix&f.mix != 0 {
				pins = append(pins, f.pins...)
				for _, k := range f.pool {
					pool[k] = true
				}
			}
		}
		if mix == 0 {
			for k := progen.KindPrivate; k <= progen.KindNested; k++ {
				pool[k] = true
			}
		}
		seen := make(map[progen.Kind]bool)
		for seed := int64(0); seed < 100; seed++ {
			p := progen.Generate(progen.Config{Seed: seed, Mix: mix})
			if n := len(p.Regions) - max(2, len(pins)); n < 1 || n > 4 {
				t.Fatalf("%s: %d regions, want every pinned template plus 1-4 drawn", p.Name, len(p.Regions))
			}
			if mix == 0 {
				if len(p.TrueSites)+len(p.FalseSites) == 0 {
					t.Fatalf("%s: no sharing sites (first region must be contended)", p.Name)
				}
				if k := p.Regions[1].Kind; k != progen.KindPrivate {
					t.Fatalf("%s: region 1 is %s, want the private baseline", p.Name, k)
				}
			}
			for i, r := range p.Regions {
				if i < len(pins) && r.Kind != pins[i] {
					t.Fatalf("%s: region %d is %s, want pinned %s", p.Name, i, r.Kind, pins[i])
				}
				if i >= len(pins) {
					if !pool[r.Kind] {
						t.Fatalf("%s: region %d drew %s from outside the %s pool", p.Name, i, r.Kind, mix)
					}
					seen[r.Kind] = true
				}
				if got := 2 * (r.Depth + r.Fanout + 1); got > 12 {
					t.Fatalf("%s region %d: %d in-tx branches exceeds the LBR budget", p.Name, r.ID, got)
				}
			}
			if p.Durable() != (mix&progen.MixPmem != 0) || p.Elides() != (mix&progen.MixElide != 0) || p.PeriodStable() != (mix == 0) {
				t.Fatalf("%s: durable=%v elides=%v period-stable=%v do not match mix %s",
					p.Name, p.Durable(), p.Elides(), p.PeriodStable(), mix)
			}
		}
		for k := range pool {
			if !seen[k] {
				t.Errorf("%s: pool kind %s never drawn in 100 seeds", mix, k)
			}
		}
	}
}

// TestGenerateGolden pins the programs of the default and each single
// feature mix, seeds 0-299, to hashes recorded before the mixes became
// a table: a refactor of the generator must not move a single draw.
func TestGenerateGolden(t *testing.T) {
	golden := map[progen.Mix]string{
		0:               "6b67fc327672d3a4a68291302f64c2127ad82e23415779f80bf0a0edeeb1b602",
		progen.MixSTM:   "571125b0bcf31a826f731b3a058cf72bbe0d59448b8406784cfb673fa2d03fe0",
		progen.MixPmem:  "b99dc8ded64cb9ad418167d34ca6b0baf2089b306e10a80a3bac6d3132711784",
		progen.MixElide: "241458ae8468dec3b7c4855aea5901cf161daa8086e63ce837cc9ae6cb5737d0",
	}
	for mix, want := range golden {
		h := sha256.New()
		for seed := int64(0); seed < 300; seed++ {
			b, err := json.Marshal(progen.Generate(progen.Config{Seed: seed, Mix: mix}))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("%s mix, seeds 0-299: hash %s, want %s", mix, got, want)
		}
	}
}

// TestParseMix: every spelling round-trips, and a bad one is refused
// with the valid spellings named.
func TestParseMix(t *testing.T) {
	for _, mix := range mixes(t) {
		if got, err := progen.ParseMix(mix.String()); err != nil || got != mix {
			t.Errorf("ParseMix(%q) = %v, %v", mix.String(), got, err)
		}
	}
	for _, bad := range []string{"bogus", "", "pmem+stm", "stm+stm"} {
		_, err := progen.ParseMix(bad)
		if err == nil || !strings.Contains(err.Error(), "stm+pmem+elide") {
			t.Errorf("ParseMix(%q) error %v does not name the valid mixes", bad, err)
		}
	}
}

// TestProgramsRun: generated programs must execute to completion with
// their memory-state checks passing, both natively and profiled.
func TestProgramsRun(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := progen.Generate(progen.Config{Seed: seed})
		w := p.Workload()
		if _, err := txsampler.RunWorkload(w, txsampler.Options{Seed: seed}); err != nil {
			t.Fatalf("seed %d native: %v", seed, err)
		}
		res, err := txsampler.RunWorkload(w, txsampler.Options{Seed: seed, Profile: true})
		if err != nil {
			t.Fatalf("seed %d profiled: %v", seed, err)
		}
		if res.GroundTruth.Commits == 0 {
			t.Fatalf("seed %d: no commits in ground truth", seed)
		}
	}
}

// TestProgramsDeterministic: the same program under the same options
// must produce identical ground truth and elapsed cycles.
func TestProgramsDeterministic(t *testing.T) {
	p := progen.Generate(progen.Config{Seed: 7})
	a, err := txsampler.RunWorkload(p.Workload(), txsampler.Options{Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := txsampler.RunWorkload(p.Workload(), txsampler.Options{Seed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedCycles != b.ElapsedCycles {
		t.Fatalf("elapsed cycles differ: %d vs %d", a.ElapsedCycles, b.ElapsedCycles)
	}
	if !reflect.DeepEqual(a.GroundTruth, b.GroundTruth) {
		t.Fatalf("ground truth differs:\n%+v\n%+v", a.GroundTruth, b.GroundTruth)
	}
}

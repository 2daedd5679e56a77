package faults

// Plan spellings. Every key of Plan and NetPlan is declared once, as a
// `fault:"key,kind"` tag on its field, and one parse, format, range
// check and enablement test over those tags serves both plans. The
// kinds:
//
//	rate    float64 probability, in [0,1]
//	factor  float64 multiplier, finite and >= 0
//	count   uint64
//	name    string
//
// Any rate above zero turns a plan's injector on, and so does a
// non-zero count tagged `fault:"key,count,enables"`; no other key does.
//
// String writes the keys in field order and omits a key whose value is
// zero (for a float, not above zero), so the zero plan prints "none".
// profile.ConfigHash hashes that spelling: a tag's key, its field's
// position and its kind are part of every campaign shard's and fleet
// upload's identity.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// key is one tagged field of a plan struct.
type key struct {
	name, kind string
	enables    bool // a count whose non-zero value turns injection on
	field      int
}

// tagged holds each plan type's keys, read from its tags once:
// machine.Config.Validate range-checks the plan of every run.
var tagged = map[reflect.Type][]key{
	reflect.TypeFor[Plan]():    keysOf(reflect.TypeFor[Plan]()),
	reflect.TypeFor[NetPlan](): keysOf(reflect.TypeFor[NetPlan]()),
}

// keysOf lists the `fault`-tagged fields of the struct type t in field
// order.
func keysOf(t reflect.Type) []key {
	var keys []key
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := t.Field(i).Tag.Lookup("fault"); ok {
			name, rest, _ := strings.Cut(tag, ",")
			kind, opt, _ := strings.Cut(rest, ",")
			keys = append(keys, key{name: name, kind: kind, enables: opt == "enables", field: i})
		}
	}
	return keys
}

// spell renders plan, a Plan or NetPlan, as comma-separated key=value
// pairs, or "none" when it sets no key.
func spell(plan any) string {
	v := reflect.ValueOf(plan)
	var parts []string
	for _, k := range tagged[v.Type()] {
		f := v.Field(k.field)
		switch k.kind {
		case "rate", "factor":
			if f.Float() > 0 {
				parts = append(parts, k.name+"="+strconv.FormatFloat(f.Float(), 'g', -1, 64))
			}
		case "count":
			if f.Uint() > 0 {
				parts = append(parts, k.name+"="+strconv.FormatUint(f.Uint(), 10))
			}
		case "name":
			if f.String() != "" {
				parts = append(parts, k.name+"="+f.String())
			}
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// parse reads s, a preset name of presets, "none", or comma-separated
// key=value pairs (a key given twice keeps its last value), into a
// validated Plan or NetPlan.
func parse[P interface{ Validate() error }](s string, presets map[string]P) (P, error) {
	var p, zero P
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	if preset, ok := presets[s]; ok {
		return preset, nil
	}
	v := reflect.ValueOf(&p).Elem()
	keys := tagged[v.Type()]
	for _, kv := range strings.Split(s, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return zero, fmt.Errorf("faults: %q is not key=value and not a preset (presets: %s)",
				kv, strings.Join(presetNames(presets), ", "))
		}
		i := slices.IndexFunc(keys, func(k key) bool { return k.name == name })
		if i < 0 {
			return zero, fmt.Errorf("faults: unknown key %q", name)
		}
		f := v.Field(keys[i].field)
		var err error
		switch keys[i].kind {
		case "rate", "factor":
			var x float64
			x, err = strconv.ParseFloat(val, 64)
			f.SetFloat(x)
		case "count":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			f.SetUint(n)
		case "name":
			f.SetString(val)
		}
		if err != nil {
			return zero, fmt.Errorf("faults: bad value for %s: %q", name, val)
		}
	}
	if err := p.Validate(); err != nil {
		return zero, err
	}
	return p, nil
}

// checkRanges reports the first rate outside [0,1] or factor that is
// negative or infinite in plan, a Plan or NetPlan. NaN fails both.
func checkRanges(plan any) error {
	v := reflect.ValueOf(plan)
	for _, k := range tagged[v.Type()] {
		switch x := v.Field(k.field); k.kind {
		case "rate":
			if r := x.Float(); !(r >= 0 && r <= 1) {
				return fmt.Errorf("faults: %s rate %g outside [0,1]", k.name, r)
			}
		case "factor":
			if f := x.Float(); !(f >= 0) || math.IsInf(f, 1) {
				return fmt.Errorf("faults: %s %g must be finite and >= 0", k.name, f)
			}
		}
	}
	return nil
}

// injects reports whether plan, a Plan or NetPlan, sets a key that
// turns its injector on: a rate above zero or a non-zero enabling
// count.
func injects(plan any) bool {
	v := reflect.ValueOf(plan)
	for _, k := range tagged[v.Type()] {
		f := v.Field(k.field)
		if k.kind == "rate" && f.Float() > 0 || k.enables && f.Uint() > 0 {
			return true
		}
	}
	return false
}

// presetNames returns the names of a preset table, sorted.
func presetNames[P any](presets map[string]P) []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

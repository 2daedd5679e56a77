package faults

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fullPlan and fullNetPlan set every key of their plans.
var (
	fullPlan = Plan{
		SpuriousAbortRate: 1e-05, SampleDropRate: 0.2, CoalesceWindow: 400,
		LBRTruncateRate: 0.125, LBRStaleRate: 0.05, LBRClearAbortRate: 0.05,
		StallRate: 0.002, StallCycles: 4000, ClockSkewRate: 0.05, ClockSkewCycles: 1500,
		CrashWriteOffset: 4096,
		PmemCrashPoint:   PmemCrashMidLog, PmemCrashTx: 3, PmemCrashEvery: 5,
		StormPeriod: 4000, StormLength: 400, StormFactor: 2.5,
	}
	fullNetPlan = NetPlan{LatencyRate: 0.2, LatencyMaxMS: 20, DropRate: 0.15, DupRate: 1e-05, ResetRate: 0.1}
)

// TestSpellingsMatchRecorded pins String of every preset of both plans
// and of the plans setting every key to recorded bytes.
// profile.ConfigHash hashes the Plan spelling, so a changed byte would
// orphan every campaign journal and fleet upload key written before.
func TestSpellingsMatchRecorded(t *testing.T) {
	want := map[string]string{
		"all":           "spurious=0.005,drop=0.1,coalesce=300,lbr-trunc=0.05,lbr-stale=0.02,lbr-noabort=0.02,stall=0.001,stall-cycles=3000,skew=0.02,storm-period=8000,storm-len=500,storm-factor=10",
		"crash-mid-log": "pmem-crash=mid-log,pmem-crash-every=5",
		"drops":         "drop=0.2,coalesce=400",
		"elide-storm":   "spurious=0.005,storm-period=3000,storm-len=600,storm-factor=30",
		"lbr":           "lbr-trunc=0.1,lbr-stale=0.05,lbr-noabort=0.05",
		"sched":         "stall=0.002,stall-cycles=4000,skew=0.05,skew-cycles=2000",
		"spurious":      "spurious=0.01",
		"storm":         "spurious=0.002,drop=0.02,lbr-trunc=0.01,storm-period=4000,storm-len=400,storm-factor=25",
		"torn-flush":    "pmem-crash=torn-tail,pmem-crash-every=5",
	}
	netWant := map[string]string{
		"chaos": "latency=0.2,latency-ms=20,net-drop=0.15,dup=0.1,reset=0.1",
		"lossy": "latency=0.2,latency-ms=20,net-drop=0.15,dup=0.05",
		"slow":  "latency=0.5,latency-ms=30",
	}
	if len(want) != len(Presets) || len(netWant) != len(NetPresets) {
		t.Fatalf("%d plan and %d network presets, %d and %d recorded",
			len(Presets), len(NetPresets), len(want), len(netWant))
	}
	for _, name := range PresetNames() {
		if got := Presets[name].String(); got != want[name] {
			t.Errorf("preset %s spells %q, recorded %q", name, got, want[name])
		}
	}
	for _, name := range NetPresetNames() {
		if got := NetPresets[name].String(); got != netWant[name] {
			t.Errorf("network preset %s spells %q, recorded %q", name, got, netWant[name])
		}
	}
	for _, c := range []struct {
		plan any
		got  string
		want string
	}{
		{Plan{}, Plan{}.String(), "none"},
		{NetPlan{}, NetPlan{}.String(), "none"},
		{fullPlan, fullPlan.String(), "spurious=1e-05,drop=0.2,coalesce=400,lbr-trunc=0.125,lbr-stale=0.05,lbr-noabort=0.05,stall=0.002,stall-cycles=4000,skew=0.05,skew-cycles=1500,crash-write=4096,pmem-crash=mid-log,pmem-crash-tx=3,pmem-crash-every=5,storm-period=4000,storm-len=400,storm-factor=2.5"},
		{fullNetPlan, fullNetPlan.String(), "latency=0.2,latency-ms=20,net-drop=0.15,dup=1e-05,reset=0.1"},
	} {
		if c.got != c.want {
			t.Errorf("%T spells %q, recorded %q", c.plan, c.got, c.want)
		}
		if keys := len(tagged[reflect.TypeOf(c.plan)]); c.got != "none" && strings.Count(c.got, "=") != keys {
			t.Errorf("%q does not set all %d keys of %T", c.got, keys, c.plan)
		}
	}
}

// TestNonFiniteValuesRejected gives NaN and both infinities to every
// float field of both plans, through the parser and through Validate
// on a plan built directly; each must be refused.
func TestNonFiniteValuesRejected(t *testing.T) {
	for _, c := range []struct {
		plan  any
		parse func(string) error
	}{
		{Plan{}, func(s string) error { _, err := ParsePlan(s); return err }},
		{NetPlan{}, func(s string) error { _, err := ParseNetPlan(s); return err }},
	} {
		typ := reflect.TypeOf(c.plan)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			key, _, _ := strings.Cut(typ.Field(i).Tag.Get("fault"), ",")
			if key == "" {
				t.Errorf("%s.%s has no fault key", typ.Name(), typ.Field(i).Name)
				continue
			}
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				spec := key + "=" + strconv.FormatFloat(x, 'g', -1, 64)
				if err := c.parse(spec); err == nil {
					t.Errorf("%s: %q accepted", typ.Name(), spec)
				}
				v := reflect.New(typ).Elem()
				v.Field(i).SetFloat(x)
				if err := v.Interface().(interface{ Validate() error }).Validate(); err == nil {
					t.Errorf("%s{%s: %g}.Validate() accepted", typ.Name(), typ.Field(i).Name, x)
				}
			}
		}
	}
}

// FuzzParsePlan holds both parsers to their spelling contract: any
// input is refused, or it yields a valid plan that re-parses from its
// own String to an equal plan.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		roundTrip(t, s, ParsePlan)
		roundTrip(t, s, ParseNetPlan)
	})
}

func roundTrip[P interface {
	comparable
	Validate() error
	String() string
}](t *testing.T, s string, parse func(string) (P, error)) {
	p, err := parse(s)
	if err != nil {
		return
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%q parsed to an invalid %T: %v", s, p, err)
	}
	back, err := parse(p.String())
	if err != nil {
		t.Fatalf("%q parsed, but its spelling %q does not: %v", s, p.String(), err)
	}
	if back != p {
		t.Fatalf("%q parsed to %+v, its spelling %q to %+v", s, p, p.String(), back)
	}
}

// TestRatesEnableInjectors: the tags alone decide which keys turn an
// injector on. A plan setting only one key, by reflection past the
// parser's cross-key rules, gets a non-nil injector exactly when that
// key is a rate or the coalesce window.
func TestRatesEnableInjectors(t *testing.T) {
	set := func(f reflect.Value, kind string) {
		switch kind {
		case "rate":
			f.SetFloat(0.5)
		case "factor":
			f.SetFloat(2)
		case "count":
			f.SetUint(7)
		case "name":
			f.SetString(PmemCrashMidLog)
		}
	}
	rates := 0
	for _, k := range tagged[reflect.TypeFor[Plan]()] {
		var p Plan
		set(reflect.ValueOf(&p).Elem().Field(k.field), k.kind)
		want := k.kind == "rate" || k.name == "coalesce"
		if got := NewInjector(p, 1) != nil; got != want {
			t.Errorf("plan %q: injector %v, want %v", p, got, want)
		}
		if k.kind == "rate" {
			rates++
		}
	}
	for _, k := range tagged[reflect.TypeFor[NetPlan]()] {
		var p NetPlan
		set(reflect.ValueOf(&p).Elem().Field(k.field), k.kind)
		want := k.kind == "rate"
		if got := NewNetInjector(p, 1) != nil; got != want {
			t.Errorf("net plan %q: injector %v, want %v", p, got, want)
		}
		if k.kind == "rate" {
			rates++
		}
	}
	if rates != 7+4 {
		t.Errorf("%d rate keys, want 7 machine-side and 4 network", rates)
	}
}

package machine

// Config validation: frontends turn user flags into configs, so every
// invalid combination must surface as a descriptive error from
// Validate (and as a panic only from New, which is API misuse).

import (
	"strings"
	"testing"

	"txsampler/internal/cache"
	"txsampler/internal/faults"
	"txsampler/internal/htm"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // "" = valid
	}{
		{"zero-defaults", Config{}, ""},
		{"typical", Config{Threads: 8, LBRDepth: 16}, ""},
		{"too-many-threads", Config{Threads: 65}, "out of range"},
		{"negative-threads", Config{Threads: -1}, "out of range"},
		{"negative-lbr", Config{Threads: 2, LBRDepth: -3}, "LBR depth"},
		{"bad-cache-sets", Config{Threads: 2, Cache: cache.Config{Sets: 3, Ways: 2}}, "power of two"},
		{"negative-latency", Config{Threads: 2, Cache: cache.Config{Sets: 4, Ways: 2, HitLatency: -1}}, "latency"},
		{"bad-fault-rate", Config{Threads: 2, Faults: faults.Plan{SampleDropRate: 1.5}}, "drop"},
		{"bad-storm", Config{Threads: 2, Faults: faults.Plan{StormPeriod: 10, StormLength: 20}}, "storm"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: invalid config accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	New(Config{Threads: 2, Cache: cache.Config{Sets: 5, Ways: 1}})
}

func TestSubConfigValidate(t *testing.T) {
	if err := (htm.Config{Sets: 0, Ways: 4}).Validate(); err == nil {
		t.Error("htm: zero sets accepted")
	}
	if err := (htm.Config{Sets: 16, Ways: 4, MaxReadLines: -1}).Validate(); err == nil {
		t.Error("htm: negative MaxReadLines accepted")
	}
	if err := (htm.Config{Sets: 16, Ways: 4}).Validate(); err != nil {
		t.Errorf("htm: valid config rejected: %v", err)
	}
	if err := (cache.Config{}).Validate(); err == nil {
		t.Error("cache: zero config accepted (callers must substitute DefaultConfig)")
	}
	if err := cache.DefaultConfig().Validate(); err != nil {
		t.Errorf("cache: DefaultConfig rejected: %v", err)
	}
}

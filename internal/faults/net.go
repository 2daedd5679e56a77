package faults

// Network fault injection for the fleet ingest path. Where the
// machine-side Plan models a lossy measurement medium (dropped PMU
// samples, corrupted LBRs), NetPlan models a lossy transport: added
// latency, vanished requests, duplicated deliveries, and connections
// reset mid-body. A NetInjector is seeded per node and advances one
// decision per request, so a fault storm against the fleet daemon is
// exactly as reproducible as a chaos profiling run — same seed, same
// plan, same fault sequence.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Injected network errors, distinguishable by errors.Is so retry
// loops and tests can tell an injected fault from a real one.
var (
	// ErrNetDrop marks a request that vanished before reaching the
	// server (connection refused / black-holed packet).
	ErrNetDrop = errors.New("faults: injected network drop")
	// ErrNetReset marks a connection reset mid-body: the server saw a
	// truncated request, the client saw a write failure.
	ErrNetReset = errors.New("faults: injected connection reset mid-body")
)

// NetPlan configures the network fault regimes. The zero value
// injects nothing. All rates are per-request probabilities in [0,1].
// Each field's `fault` tag spells its key in the form ParseNetPlan
// reads and String writes (see spell.go).
type NetPlan struct {
	// LatencyRate delays a request before it is forwarded, by a
	// uniform 1..LatencyMaxMS milliseconds (default 50). Latency is
	// the benign regime: it exercises deadlines and pacing without
	// losing anything.
	LatencyRate  float64 `fault:"latency,rate"`
	LatencyMaxMS uint64  `fault:"latency-ms,count"`

	// DropRate makes the request vanish: the server never sees it and
	// the client gets ErrNetDrop, as for a refused connection or a
	// black-holed packet. Retries are the only remedy.
	DropRate float64 `fault:"net-drop,rate"`

	// DupRate delivers the request twice (a retransmit whose original
	// also arrived). The client sees the second response. Duplicates
	// are the regime idempotency keys exist for: without dedup the
	// server double-counts.
	DupRate float64 `fault:"dup,rate"`

	// ResetRate tears the connection mid-body: the server receives a
	// truncated request (its framed-payload integrity check fails)
	// and the client gets ErrNetReset without knowing how much
	// arrived — the ambiguous-outcome case that forces
	// acknowledged-only-once semantics.
	ResetRate float64 `fault:"reset,rate"`
}

// Enabled reports whether the plan injects anything: whether it sets
// a rate (see spell.go).
func (p NetPlan) Enabled() bool { return injects(p) }

// Validate checks that every rate is a probability.
func (p NetPlan) Validate() error { return checkRanges(p) }

func (p NetPlan) withDefaults() NetPlan {
	if p.LatencyRate > 0 && p.LatencyMaxMS == 0 {
		p.LatencyMaxMS = 50
	}
	return p
}

// String renders the plan in the key=value form ParseNetPlan accepts.
func (p NetPlan) String() string { return spell(p) }

// NetPresets name ready-made network fault plans for the CLI and the
// chaos suite.
var NetPresets = map[string]NetPlan{
	"slow":  {LatencyRate: 0.5, LatencyMaxMS: 30},
	"lossy": {DropRate: 0.15, DupRate: 0.05, LatencyRate: 0.2, LatencyMaxMS: 20},
	"chaos": {DropRate: 0.15, DupRate: 0.1, ResetRate: 0.1, LatencyRate: 0.2, LatencyMaxMS: 20},
}

// NetPresetNames returns the preset names, sorted.
func NetPresetNames() []string { return presetNames(NetPresets) }

// ParseNetPlan parses a comma-separated key=value network fault
// specification, e.g. "net-drop=0.1,dup=0.05,reset=0.02". A bare
// preset name ("slow", "lossy", "chaos") or "none" is also accepted.
// The result is validated.
func ParseNetPlan(s string) (NetPlan, error) { return parse(s, NetPresets) }

// NetStats counts the network faults one injector delivered.
type NetStats struct {
	Delayed    uint64 `json:"delayed,omitempty"`
	DelayedMS  uint64 `json:"delayed_ms,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Duplicated uint64 `json:"duplicated,omitempty"`
	Resets     uint64 `json:"resets,omitempty"`
}

// Merge accumulates src into s, as Stats.Merge does for the
// machine-side counters.
func (s *NetStats) Merge(src NetStats) {
	s.Delayed += src.Delayed
	s.DelayedMS += src.DelayedMS
	s.Dropped += src.Dropped
	s.Duplicated += src.Duplicated
	s.Resets += src.Resets
}

// Total returns the number of injected loss-class faults (latency is
// benign bookkeeping and excluded).
func (s NetStats) Total() uint64 { return s.Dropped + s.Duplicated + s.Resets }

// String renders the stats for log lines.
func (s NetStats) String() string {
	return fmt.Sprintf("delayed=%d dropped=%d dup=%d reset=%d",
		s.Delayed, s.Dropped, s.Duplicated, s.Resets)
}

// NetDecision is the fate of one request, drawn up front so a request
// consumes a fixed number of PRNG draws regardless of outcome.
type NetDecision struct {
	Delay     time.Duration
	Drop      bool
	Duplicate bool
	Reset     bool
}

// NetInjector draws per-request network fault decisions from a seeded
// PRNG. Decisions depend only on (plan, seed, request ordinal), so a
// node replaying the same upload sequence replays the same faults.
type NetInjector struct {
	mu    sync.Mutex
	plan  NetPlan
	rng   stream
	Stats NetStats
}

// NewNetInjector returns an injector for the plan, deterministically
// seeded (typically campaign seed mixed with the node ordinal).
// Returns nil for a plan that injects nothing.
func NewNetInjector(p NetPlan, seed uint64) *NetInjector {
	p = p.withDefaults()
	if !p.Enabled() {
		return nil
	}
	return &NetInjector{plan: p, rng: newStream(seed)}
}

// Decide draws the fate of the next request. Drop wins over
// duplicate/reset (a vanished request cannot also be delivered);
// reset wins over duplicate.
func (in *NetInjector) Decide() NetDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d NetDecision
	if in.rng.chance(in.plan.LatencyRate) {
		ms := in.rng.next()%in.plan.LatencyMaxMS + 1
		d.Delay = time.Duration(ms) * time.Millisecond
		in.Stats.Delayed++
		in.Stats.DelayedMS += ms
	}
	drop := in.rng.chance(in.plan.DropRate)
	reset := in.rng.chance(in.plan.ResetRate)
	dup := in.rng.chance(in.plan.DupRate)
	switch {
	case drop:
		d.Drop = true
		in.Stats.Dropped++
	case reset:
		d.Reset = true
		in.Stats.Resets++
	case dup:
		d.Duplicate = true
		in.Stats.Duplicated++
	}
	return d
}

// Snapshot returns the stats accumulated so far.
func (in *NetInjector) Snapshot() NetStats {
	if in == nil {
		return NetStats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.Stats
}

// NetTransport is an http.RoundTripper that applies a NetInjector's
// decisions to every outgoing request. It buffers request bodies (the
// fleet's shard payloads are in-memory already) so duplicates and
// resets can be materialized faithfully: a duplicate is two complete
// deliveries, a reset is a request whose body errors out after half
// the declared bytes — the server reads a truncated frame, the client
// gets ErrNetReset.
type NetTransport struct {
	// Inner performs the real round trips (nil = http.DefaultTransport).
	Inner http.RoundTripper
	// Injector supplies decisions; nil passes everything through.
	Injector *NetInjector
}

// NewNetTransport wraps inner with a fresh injector for the plan.
// With a disabled plan it still returns a working transport that
// injects nothing.
func NewNetTransport(inner http.RoundTripper, p NetPlan, seed uint64) *NetTransport {
	return &NetTransport{Inner: inner, Injector: NewNetInjector(p, seed)}
}

func (t *NetTransport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *NetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Injector == nil {
		return t.inner().RoundTrip(req)
	}
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	d := t.Injector.Decide()
	if d.Delay > 0 {
		select {
		case <-time.After(d.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if d.Drop {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL, ErrNetDrop)
	}
	if d.Reset {
		// Deliver a request whose body fails after half the declared
		// bytes: the server-side read sees an unexpected EOF, and the
		// client's round trip fails.
		half := len(body) / 2
		reset := req.Clone(req.Context())
		reset.Body = io.NopCloser(io.MultiReader(
			bytes.NewReader(body[:half]),
			&errReader{err: ErrNetReset},
		))
		reset.ContentLength = int64(len(body))
		resp, err := t.inner().RoundTrip(reset)
		if err == nil {
			// The server answered the truncated request (e.g. 400);
			// the client still experiences a reset.
			resp.Body.Close()
		}
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL, ErrNetReset)
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		return t.inner().RoundTrip(r)
	}
	if d.Duplicate {
		// First delivery: complete, response discarded (the "original"
		// of a retransmit pair). Its failure does not fail the round
		// trip — the second delivery is the one the client observes.
		if resp, err := send(); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return send()
}

// errReader returns err on every read.
type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

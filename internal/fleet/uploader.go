package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"txsampler/internal/retry"
	"txsampler/internal/telemetry"
)

// Shard is one profile upload: the framed database bytes plus the
// identity that makes retries safe (Key) and aggregation meaningful
// (Node, Window).
type Shard struct {
	// Key is the idempotency key; the daemon never double-counts two
	// uploads with the same key, so retrying after an ambiguous
	// failure (timeout, dropped ack) is always safe.
	Key string
	// Node names the origin node (diagnostics only).
	Node string
	// Window is the logical aggregation window ordinal.
	Window int
	// Payload is a framed profile database (profile.Database.Write).
	Payload []byte
}

// Uploader ships shards to a txsamplerd daemon, absorbing the
// failures a fleet sees in practice: per-shard deadlines, bounded
// exponential backoff with jitter, Retry-After obedience under load
// shedding, and a circuit breaker that stops hammering a daemon that
// is down.
type Uploader struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Client is the HTTP client (http.DefaultClient if nil). Fault
	// injection wires a faults.NetTransport in here.
	Client *http.Client
	// Policy drives retry pacing; its zero value retries 3 times from
	// a 100ms base.
	Policy retry.Policy
	// Breaker, when non-nil, gates uploads: while open, Upload fails
	// fast with retry.ErrOpen instead of burning deadlines on a dead
	// daemon.
	Breaker *retry.Breaker
	// ShardTimeout bounds each individual attempt (default 10s).
	ShardTimeout time.Duration
	// Metrics receives upload counters (nil = none).
	Metrics *telemetry.Registry
}

// Result reports how one shard upload concluded.
type Result struct {
	// Status is the daemon's X-Fleet-Status (StatusMerged or
	// StatusDuplicate).
	Status string
	// Attempts is how many HTTP attempts the upload took.
	Attempts int
}

// errShed marks a 429 so tests can distinguish shed-then-recovered
// uploads; it is retryable.
var errShed = errors.New("fleet: daemon shedding load")

// IsShed reports whether err is (or wraps) a load-shed rejection.
func IsShed(err error) bool { return errors.Is(err, errShed) }

// Upload ships one shard, retrying transient failures under the
// uploader's policy. It returns the daemon's final ack, a permanent
// rejection (4xx), retry.ErrOpen if the circuit breaker is open, or
// the last transient error once attempts are exhausted.
func (u *Uploader) Upload(ctx context.Context, shard Shard) (Result, error) {
	res := Result{}
	client := u.Client
	if client == nil {
		client = http.DefaultClient
	}
	timeout := u.ShardTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	reg := u.Metrics
	ctrSent := reg.Counter("fleet.upload.sent")
	ctrRetried := reg.Counter("fleet.upload.retried")
	ctrBreaker := reg.Counter("fleet.upload.breaker_fast_fail")

	err := u.Policy.Do(ctx, func(ctx context.Context) error {
		if u.Breaker != nil {
			if err := u.Breaker.Allow(); err != nil {
				ctrBreaker.Add(1)
				// The breaker's cooldown is the retry pacing now.
				return retry.After(err, u.Breaker.RemainingCooldown())
			}
		}
		if res.Attempts > 0 {
			ctrRetried.Add(1)
		}
		res.Attempts++
		ctrSent.Add(1)
		status, err := u.attempt(ctx, client, timeout, shard)
		if err == nil {
			res.Status = status
		}
		if u.Breaker != nil {
			// Only daemon-down failures (transport errors, 5xx) trip
			// the breaker; shedding and permanent rejections mean the
			// daemon is alive.
			switch {
			case err == nil || IsShed(err) || retry.IsPermanent(err):
				u.Breaker.Record(true)
			default:
				u.Breaker.Record(false)
			}
		}
		return err
	})
	return res, err
}

// attempt performs one HTTP exchange.
func (u *Uploader) attempt(ctx context.Context, client *http.Client, timeout time.Duration, shard Shard) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.BaseURL+"/ingest", bytes.NewReader(shard.Payload))
	if err != nil {
		return "", retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if shard.Key != "" {
		req.Header.Set(HeaderKey, shard.Key)
	}
	if shard.Node != "" {
		req.Header.Set(HeaderNode, shard.Node)
	}
	req.Header.Set(HeaderWindow, strconv.Itoa(shard.Window))

	resp, err := client.Do(req)
	if err != nil {
		return "", fmt.Errorf("fleet: upload: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))

	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		return resp.Header.Get(HeaderStatus), nil
	case resp.StatusCode == http.StatusTooManyRequests:
		u.Metrics.Counter("fleet.upload.shed").Add(1)
		err := fmt.Errorf("%w: %s", errShed, bytes.TrimSpace(body))
		// Obey the daemon's Retry-After hint over our own curve.
		if hint := resp.Header.Get("Retry-After"); hint != "" {
			if secs, perr := strconv.Atoi(hint); perr == nil && secs >= 0 {
				return "", retry.After(err, time.Duration(secs)*time.Second)
			}
		}
		return "", err
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The daemon examined the shard and refused it; retrying the
		// same bytes cannot succeed.
		return "", retry.Permanent(fmt.Errorf("fleet: daemon rejected shard (%d): %s", resp.StatusCode, bytes.TrimSpace(body)))
	default:
		return "", fmt.Errorf("fleet: daemon error (%d): %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

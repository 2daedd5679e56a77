// Package campaign makes long experiment sweeps crash-safe and
// resumable. A campaign is an ordered set of shards — one fully
// deterministic machine run each, identified by
// workload/threads/seed/config-hash — whose progress is journaled to
// an append-only manifest of checksummed frames next to the artifacts. After a crash,
// a kill, or a torn write, re-running the campaign with resume replays
// the journal, skips shards whose artifacts verify, and re-runs the
// failed or interrupted ones; because every shard is a pure function
// of its key, the resumed campaign's artifacts are byte-identical to
// an uninterrupted run's.
//
// The runner gives each shard a deadline, bounded retries with
// exponential backoff, and panic isolation: a shard that panics is
// recorded as failed and surfaced in the final report instead of
// aborting the sweep.
package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"txsampler/internal/retry"
	"txsampler/internal/telemetry"
)

// Shard is one unit of a campaign: a deterministic run producing one
// artifact.
type Shard struct {
	Workload string
	Threads  int
	Seed     int64
	// ConfigHash fingerprints every remaining run-affecting option
	// (fault plan, periods, format version, ...); see Hash. Options
	// the results are invariant to — worker count, scheduler quantum —
	// must stay out, so their flags do not invalidate a journal.
	ConfigHash string
	// Artifact is the output path recorded in the journal, relative to
	// the campaign directory so journals are location-independent.
	Artifact string
	// Run produces the artifact. It must honor ctx: campaign
	// cancellation and the per-shard deadline arrive through it.
	Run func(ctx context.Context) error
}

// Key is the shard's journal identity.
func (s Shard) Key() string {
	return fmt.Sprintf("%s/t%d/s%d/%s", s.Workload, s.Threads, s.Seed, s.ConfigHash)
}

// Hash fingerprints config ingredients into a short stable hex string
// for Shard.ConfigHash.
func Hash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Options configures a campaign run.
type Options struct {
	// Workers shards the campaign across goroutines (artifacts are
	// deterministic for any worker count). <=1 runs sequentially.
	Workers int
	// Timeout is the per-shard deadline (0 = none). A shard that
	// exceeds it is canceled at its next quantum boundary and counts
	// as a failed attempt.
	Timeout time.Duration
	// Retries is the number of re-attempts after a shard's first
	// failure (0 = fail immediately). Attempts back off exponentially
	// from Backoff (default 100ms) via the shared retry policy;
	// campaign backoff is jitter-free so identical campaigns remain
	// deterministic.
	Retries int
	Backoff time.Duration
	// Context cancels the whole campaign (nil = Background). Already
	// journaled progress survives for a later resume.
	Context context.Context
	// Verify checks an artifact before a resumed campaign skips its
	// shard (nil = trust the journal). A failed verification re-runs
	// the shard.
	Verify func(artifact string) error
	// Log receives one line per shard decision (skip, retry, failure);
	// nil silences it.
	Log io.Writer
	// Metrics, when non-nil, receives campaign counters: shards run,
	// skipped, re-run after failure, failed, and retries.
	Metrics *telemetry.Registry

	// CrashAfterShards is a test and CI hook: after this many shards
	// complete, the process exits immediately with code 137 (as a kill
	// -9 mid-campaign would), leaving the journal and artifacts for a
	// resume to pick up. 0 disables it.
	CrashAfterShards int
}

// Failure is one shard the campaign gave up on.
type Failure struct {
	Key string
	Err string
}

// Report summarizes a campaign run.
type Report struct {
	Ran      int // shards executed to completion this run
	Skipped  int // shards skipped because the journal + artifact verified
	Rerun    int // executed shards that a previous run left failed or interrupted
	Failed   int // shards that exhausted their attempts
	Retries  int // failed attempts that were retried
	Canceled bool
	Failures []Failure
}

func (r *Report) String() string {
	s := fmt.Sprintf("campaign: %d run, %d skipped (journal), %d recovered, %d failed, %d retries",
		r.Ran, r.Skipped, r.Rerun, r.Failed, r.Retries)
	if r.Canceled {
		s += " [canceled]"
	}
	return s
}

// Run executes the campaign against the journal. It returns the
// report and, when the campaign context was canceled, its error; shard
// failures do NOT abort the run — they are isolated, journaled, and
// listed in Report.Failures.
func Run(shards []Shard, j *Journal, o Options) (*Report, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	backoff := retry.Policy{BaseDelay: o.Backoff}
	var (
		mu        sync.Mutex
		rep       Report
		completed atomic.Int64
	)
	logf := func(format string, args ...any) {
		if o.Log != nil {
			mu.Lock()
			fmt.Fprintf(o.Log, format+"\n", args...)
			mu.Unlock()
		}
	}
	count := func(c *int, metric string) {
		mu.Lock()
		*c++
		mu.Unlock()
		o.Metrics.Counter("campaign." + metric).Add(1)
	}

	runShard := func(s Shard) {
		key := s.Key()
		prev, seen := j.State(key)
		if seen && prev.Status == StatusDone {
			verr := error(nil)
			if o.Verify != nil {
				verr = o.Verify(s.Artifact)
			}
			if verr == nil {
				count(&rep.Skipped, "shards_skipped")
				logf("campaign: %s: skipped (done, artifact verified)", key)
				return
			}
			logf("campaign: %s: journaled done but artifact bad (%v); re-running", key, verr)
		}
		if seen {
			count(&rep.Rerun, "shards_rerun")
		}
		for attempt := 1; ; attempt++ {
			if ctx.Err() != nil {
				mu.Lock()
				rep.Canceled = true
				mu.Unlock()
				return
			}
			j.Record(Entry{Key: key, Status: StatusStarted, Artifact: s.Artifact, Attempt: attempt})
			err := attemptShard(ctx, o.Timeout, s)
			if err == nil {
				j.Record(Entry{Key: key, Status: StatusDone, Artifact: s.Artifact, Attempt: attempt})
				count(&rep.Ran, "shards_run")
				if o.CrashAfterShards > 0 && int(completed.Add(1)) == o.CrashAfterShards {
					logf("campaign: injected crash after %d shards", o.CrashAfterShards)
					os.Exit(137)
				}
				return
			}
			j.Record(Entry{Key: key, Status: StatusFailed, Artifact: s.Artifact, Attempt: attempt, Err: err.Error()})
			if ctx.Err() != nil {
				// Campaign-level cancellation, not a shard fault: stop
				// without burning retries; a resume re-runs this shard.
				mu.Lock()
				rep.Canceled = true
				mu.Unlock()
				return
			}
			if attempt > o.Retries {
				count(&rep.Failed, "shards_failed")
				mu.Lock()
				rep.Failures = append(rep.Failures, Failure{Key: key, Err: err.Error()})
				mu.Unlock()
				logf("campaign: %s: FAILED after %d attempt(s): %v", key, attempt, err)
				return
			}
			count(&rep.Retries, "retries")
			delay := backoff.Delay(attempt)
			logf("campaign: %s: attempt %d failed (%v); retrying in %v", key, attempt, err, delay)
			_ = retry.Sleep(ctx, delay) // a cancel here is caught at the top of the loop
		}
	}

	workers := o.Workers
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, s := range shards {
			runShard(s)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(shards) {
						return
					}
					runShard(shards[i])
				}
			}()
		}
		wg.Wait()
	}
	if rep.Canceled {
		return &rep, fmt.Errorf("campaign: %w", context.Cause(ctx))
	}
	return &rep, nil
}

// attemptShard runs one attempt under the per-shard deadline with
// panic isolation.
func attemptShard(ctx context.Context, timeout time.Duration, s Shard) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panicked: %v", r)
		}
	}()
	return s.Run(ctx)
}

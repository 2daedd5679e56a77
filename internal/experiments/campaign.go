package experiments

// Profile campaigns: the crash-safe, resumable form of "profile every
// workload and save its database". cmd/htmbench -profiledir and
// cmd/experiments -sweep both drive this helper, so both CLIs share
// one journal format, one artifact layout, and one resume semantics.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"txsampler"
	"txsampler/internal/campaign"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/profile"
	"txsampler/internal/telemetry"
)

// JournalName is the campaign manifest's filename inside the artifact
// directory. Byte-level comparisons of two campaign directories must
// exclude it when worker counts differ: parallel workers interleave
// journal lines in completion order, while the artifacts themselves
// stay byte-identical.
const JournalName = "campaign.jsonl"

// CampaignConfig describes a profile sweep.
type CampaignConfig struct {
	// Dir receives one profile database per shard plus the journal.
	Dir string
	// Workloads to profile, in output order.
	Workloads []string
	// Threads (0 = each workload's default) and the base Seed; Seeds > 1
	// fans each workload out over Seed..Seed+Seeds-1.
	Threads int
	Seed    int64
	Seeds   int
	// Plan is the fault-injection plan. Machine faults are part of the
	// shard identity; the crash-write storage fault is not (see
	// faults.Plan.MachineOnly) — it tears the artifact write instead.
	Plan    faults.Plan
	Quantum int
	// Hybrid selects the slow-path execution mode of every workload
	// lock; part of the shard identity (it changes the profile bytes).
	Hybrid machine.HybridPolicy
	// Resume replays Dir's journal and skips shards whose artifacts
	// verify; false starts a fresh journal (artifacts are overwritten as
	// their shards complete).
	Resume bool
	// Retries, Backoff, Timeout, Parallel, Context, Metrics, and
	// CrashAfterShards map to the campaign runner's options.
	Retries          int
	Backoff          time.Duration
	Timeout          time.Duration
	Parallel         int
	Context          context.Context
	Metrics          *telemetry.Registry
	CrashAfterShards int
}

// artifactName flattens a workload name into the per-seed database
// filename, e.g. stamp/vacation seed 5 -> stamp_vacation_s5.json.
func artifactName(workload string, seed int64) string {
	return fmt.Sprintf("%s_s%d.json", strings.ReplaceAll(workload, "/", "_"), seed)
}

// VerifyArtifact checks one campaign artifact: it must load cleanly
// from the crash-safe store and must not be a partial (interrupted)
// profile.
func VerifyArtifact(path string) error {
	db, err := profile.Load(path)
	if err != nil {
		return err
	}
	if db.Partial {
		return fmt.Errorf("%s: partial profile (interrupted run)", path)
	}
	return nil
}

// ProfileCampaign profiles every workload×seed shard into c.Dir under
// the campaign journal, printing one ground-truth line per shard in
// input order (byte-identical for any Parallel), then the campaign
// summary. Failed shards are reported, not fatal; the returned report
// says what ran, what the journal skipped, and what failed. The error
// is non-nil only when the campaign context was canceled.
func ProfileCampaign(w io.Writer, c CampaignConfig) (*campaign.Report, error) {
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, err
	}
	j, err := campaign.OpenJournal(filepath.Join(c.Dir, JournalName), c.Resume)
	if err != nil {
		return nil, err
	}
	defer j.Close()

	// The config hash covers everything else a shard's bytes depend on:
	// the machine-visible fault plan and the database format version.
	// Quantum and Parallel stay out — results are invariant to both —
	// and so does the crash-write offset, a storage-layer fault.
	confighash := campaign.Hash(c.Plan.MachineOnly().String(), strconv.Itoa(profile.FormatVersion), c.Hybrid.String())

	lines := make([]string, len(c.Workloads)*c.Seeds)
	shards := make([]campaign.Shard, 0, len(lines))
	for wi, name := range c.Workloads {
		for si := 0; si < c.Seeds; si++ {
			idx := wi*c.Seeds + si
			name, seed := name, c.Seed+int64(si)
			rel := artifactName(name, seed)
			shards = append(shards, campaign.Shard{
				Workload:   name,
				Threads:    c.Threads,
				Seed:       seed,
				ConfigHash: confighash,
				Artifact:   rel,
				Run: func(ctx context.Context) error {
					opt := txsampler.Options{
						Threads: c.Threads, Seed: seed, Profile: true,
						Faults: c.Plan, Quantum: c.Quantum, Hybrid: c.Hybrid, Context: ctx,
					}
					res, err := txsampler.Run(name, opt)
					if err != nil {
						return err
					}
					db := profile.FromReport(res.Report)
					path := filepath.Join(c.Dir, rel)
					if off := c.Plan.CrashWriteOffset; off > 0 {
						return db.SaveCrash(path, off)
					}
					if err := db.Save(path); err != nil {
						return err
					}
					lines[idx] = groundTruthLine(name, seed, res)
					return nil
				},
			})
		}
	}

	rep, err := campaign.Run(shards, j, campaign.Options{
		Workers: c.Parallel, Timeout: c.Timeout,
		Retries: c.Retries, Backoff: c.Backoff,
		Context: c.Context, Metrics: c.Metrics,
		Verify:           func(rel string) error { return VerifyArtifact(filepath.Join(c.Dir, rel)) },
		Log:              nil, // decisions are summarized below, in input order
		CrashAfterShards: c.CrashAfterShards,
	})

	for i, s := range shards {
		if lines[i] != "" {
			fmt.Fprint(w, lines[i])
			continue
		}
		if e, ok := j.State(s.Key()); ok {
			switch e.Status {
			case campaign.StatusDone:
				fmt.Fprintf(w, "%-28s seed=%-4d skipped (journal: done, artifact verified)\n", s.Workload, s.Seed)
			case campaign.StatusFailed:
				if rep != nil && rep.Canceled && strings.Contains(e.Err, "canceled") {
					fmt.Fprintf(w, "%-28s seed=%-4d interrupted (re-runs on resume)\n", s.Workload, s.Seed)
				} else {
					fmt.Fprintf(w, "%-28s seed=%-4d FAILED: %s\n", s.Workload, s.Seed, e.Err)
				}
			default:
				fmt.Fprintf(w, "%-28s seed=%-4d interrupted (attempt %d)\n", s.Workload, s.Seed, e.Attempt)
			}
		}
	}
	fmt.Fprintln(w, rep.String())
	return rep, err
}

// groundTruthLine formats one shard's native-statistics line (the same
// shape htmbench prints for plain runs).
func groundTruthLine(name string, seed int64, res *txsampler.Result) string {
	g := res.GroundTruth
	var aborts uint64
	for _, n := range g.Aborts {
		aborts += n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s seed=%-4d cycles=%-10d commits=%-7d aborts=%-7d causes:",
		name, seed, res.ElapsedCycles, g.Commits, aborts)
	for _, c := range g.AbortCauses() {
		fmt.Fprintf(&b, " %v=%d", c, g.Aborts[c])
	}
	b.WriteByte('\n')
	return b.String()
}

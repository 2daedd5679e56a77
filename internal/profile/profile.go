// Package profile implements TxSampler's on-disk profile database
// (paper §6: "the analyzer records all the insights into files and
// passes them to TxSampler's GUI for visualization"). A database holds
// the merged calling-context tree with its per-context metrics, the
// per-thread summaries, and the run metadata, serialized as a compact
// canonical binary body behind a checksummed frame (storage.go gives
// the layout). The same bytes are the fleet daemon's wire format and
// journal record.
package profile

import (
	"strconv"

	"txsampler/internal/analyzer"
	"txsampler/internal/campaign"
	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// FormatVersion identifies the database layout. Version 5 replaces the
// indented JSON inside version 4's frame with a varint binary body
// (see storage.go). Version 4 framed the JSON and its SHA-256 as one
// record in place of the text header of versions 2 and 3. Version 3
// stores each context's time as core.Metrics.Time, one bucket per
// rtm.Mode, in place of version 2's named per-feature buckets; version
// 2 added the Partial stamp; version 1 was bare JSON. Read refuses all
// four with *VersionError.
const FormatVersion = 5

// ConfigHash is a profile shard's configuration identity: everything
// besides workload, threads and seed that its bytes depend on — the
// machine-visible fault plan, FormatVersion and the hybrid policy.
// Profile campaigns key their journal entries by it and fleet uploads
// their idempotency keys. The quantum and worker counts stay out, as
// results are invariant to both, and so does the crash-write offset, a
// storage-layer fault.
func ConfigHash(plan faults.Plan, hybrid machine.HybridPolicy) string {
	return campaign.Hash(plan.MachineOnly().String(), strconv.Itoa(FormatVersion), hybrid.String())
}

// Node is one serialized calling context.
type Node struct {
	Fn       string
	Site     string
	Metrics  core.Metrics
	Children []*Node
}

// Thread is one thread's §5 histogram entry.
type Thread struct {
	TID           int
	CommitSamples uint64
	AbortSamples  uint64
}

// Database is a complete serialized profile.
type Database struct {
	Version   int
	Program   string
	Threads   int
	Periods   [5]uint64
	Totals    core.Metrics
	Quality   core.DataQuality
	PerThread []Thread
	Root      *Node

	// Partial marks a profile flushed by cooperative cancellation
	// (SIGINT/SIGTERM or a per-shard deadline) rather than a completed
	// run: the data is internally consistent up to the quantum boundary
	// the machine stopped at, but covers only a prefix of the workload.
	// Resumable campaigns replace partial artifacts by re-running the
	// shard from scratch.
	Partial bool

	// Telemetry is the profiler self-report captured when the profile
	// was produced (machine, collector, analyzer self-metrics).
	// Volatile wall-clock entries are stripped before serialization so
	// databases from identical seeds stay byte-identical.
	Telemetry []telemetry.MetricValue
}

// FromReport converts an analyzer report into a database.
func FromReport(r *analyzer.Report) *Database {
	db := &Database{
		Version: FormatVersion,
		Program: r.Program,
		Threads: r.Threads,
		Totals:  r.Totals,
		Quality: r.Quality,
		Partial: r.Partial,
	}
	for i, p := range r.Periods {
		if i < len(db.Periods) {
			db.Periods[i] = p
		}
	}
	for _, t := range r.PerThread {
		db.PerThread = append(db.PerThread, Thread{TID: t.TID, CommitSamples: t.CommitSamples, AbortSamples: t.AbortSamples})
	}
	db.Root = toNode(r.Merged.Root)
	for _, mv := range r.Self {
		if !mv.Volatile {
			db.Telemetry = append(db.Telemetry, mv)
		}
	}
	return db
}

// Report reconstructs an analyzer report from a database; the merged
// tree round-trips exactly (duplicate sibling frames sum into one
// context), so downstream analyses (ranking, decision tree) run
// identically on a loaded profile.
func (db *Database) Report() *analyzer.Report {
	r := &analyzer.Report{
		Program: db.Program,
		Threads: db.Threads,
		Totals:  db.Totals,
		Quality: db.Quality,
		Partial: db.Partial,
		Merged:  cct.NewTree[core.Metrics](),
	}
	var periods pmu.Periods
	for i := range db.Periods {
		if i < len(periods) {
			periods[i] = db.Periods[i]
		}
	}
	r.Periods = periods
	for _, t := range db.PerThread {
		r.PerThread = append(r.PerThread, analyzer.ThreadSummary{TID: t.TID, CommitSamples: t.CommitSamples, AbortSamples: t.AbortSamples})
	}
	if db.Root != nil {
		addNode(r.Merged.Root, db.Root)
	}
	r.Self = db.Telemetry
	return r
}

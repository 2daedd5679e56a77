// Package profile implements TxSampler's on-disk profile database
// (paper §6: "the analyzer records all the insights into files and
// passes them to TxSampler's GUI for visualization"). A database holds
// the merged calling-context tree with its per-context metrics, the
// per-thread summaries, and the run metadata, serialized as JSON so
// external viewers can consume it.
package profile

import (
	"txsampler/internal/analyzer"
	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/pmu"
	"txsampler/internal/telemetry"
)

// FormatVersion identifies the database layout. Version 4 frames the
// JSON and its SHA-256 as one record (see storage.go) in place of the
// text header of versions 2 and 3. Version 3 stores each context's
// time as core.Metrics.Time, one bucket per rtm.Mode, in place of
// version 2's named per-feature buckets; version 2 added the Partial
// stamp; version 1 was bare JSON. Read refuses all three with
// *VersionError.
const FormatVersion = 4

// Node is one serialized calling context.
type Node struct {
	Fn       string       `json:"fn"`
	Site     string       `json:"site,omitempty"`
	Metrics  core.Metrics `json:"metrics"`
	Children []*Node      `json:"children,omitempty"`
}

// Thread is one thread's §5 histogram entry.
type Thread struct {
	TID           int    `json:"tid"`
	CommitSamples uint64 `json:"commits"`
	AbortSamples  uint64 `json:"aborts"`
}

// Database is a complete serialized profile.
type Database struct {
	Version   int              `json:"version"`
	Program   string           `json:"program"`
	Threads   int              `json:"threads"`
	Periods   [5]uint64        `json:"periods"`
	Totals    core.Metrics     `json:"totals"`
	Quality   core.DataQuality `json:"quality"`
	PerThread []Thread         `json:"per_thread"`
	Root      *Node            `json:"cct"`

	// Partial marks a profile flushed by cooperative cancellation
	// (SIGINT/SIGTERM or a per-shard deadline) rather than a completed
	// run: the data is internally consistent up to the quantum boundary
	// the machine stopped at, but covers only a prefix of the workload.
	// Resumable campaigns replace partial artifacts by re-running the
	// shard from scratch.
	Partial bool `json:"partial,omitempty"`

	// Telemetry is the profiler self-report captured when the profile
	// was produced (machine, collector, analyzer self-metrics).
	// Volatile wall-clock entries are stripped before serialization so
	// databases from identical seeds stay byte-identical.
	Telemetry []telemetry.MetricValue `json:"telemetry,omitempty"`
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
	db.Root = fromNode(r.Merged.Root)
	for _, mv := range r.Self {
		if !mv.Volatile {
			db.Telemetry = append(db.Telemetry, mv)
		}
	}
	return db
}

func fromNode(n *core.Node) *Node {
	out := &Node{Fn: n.Frame.Fn, Site: n.Frame.Site, Metrics: n.Data}
	for _, c := range n.Children() {
		out.Children = append(out.Children, fromNode(c))
	}
	return out
}

// Report reconstructs an analyzer report from a database; the merged
// tree round-trips exactly, so downstream analyses (ranking, decision
// tree) run identically on a loaded profile.
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
		r.Merged.Root.Data = db.Root.Metrics
		attach(r.Merged.Root, db.Root.Children)
	}
	r.Self = db.Telemetry
	return r
}

func attach(parent *core.Node, children []*Node) {
	for _, c := range children {
		n := parent.Child(lbr.IP{Fn: c.Fn, Site: c.Site})
		n.Data = c.Metrics
		attach(n, c.Children)
	}
}

package profile

// The one fold that combines databases: the fleet daemon keeps an
// Aggregate per time window, and MergeAll folds a tool's shards
// (txdiff's diff sides) through one. The two tree helpers at the end
// are also the only conversions between the live calling-context tree
// and its serialized form.

import (
	"sort"
	"strings"

	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
)

// Aggregate is a running fold of databases. Every combining operation
// is commutative and associative — totals, data quality, per-thread
// counts and CCT metrics sum; threads and periods take maxima; Partial
// is OR-ed; program names union — so the rendered database is a pure
// function of the multiset of databases added: arrival order, retry
// interleavings and journal replays render byte-identically.
// Telemetry is dropped: self-metrics describe one profiling process
// and do not combine.
type Aggregate struct {
	shards    int
	programs  map[string]struct{}
	threads   int
	periods   [5]uint64
	totals    core.Metrics
	quality   core.DataQuality
	partial   bool
	perThread map[int]*Thread
	tree      *cct.Tree[core.Metrics]
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		programs:  make(map[string]struct{}),
		perThread: make(map[int]*Thread),
		tree:      cct.NewTree[core.Metrics](),
	}
}

// Add folds db into the aggregate; db is neither modified nor
// retained. A "+"-joined program name counts as its members.
func (a *Aggregate) Add(db *Database) {
	a.shards++
	for _, p := range strings.Split(db.Program, "+") {
		if p != "" {
			a.programs[p] = struct{}{}
		}
	}
	a.threads = max(a.threads, db.Threads)
	for i, p := range db.Periods {
		a.periods[i] = max(a.periods[i], p)
	}
	a.totals.Merge(&db.Totals)
	a.quality.Merge(db.Quality)
	a.partial = a.partial || db.Partial
	for _, t := range db.PerThread {
		pt := a.perThread[t.TID]
		if pt == nil {
			pt = &Thread{TID: t.TID}
			a.perThread[t.TID] = pt
		}
		pt.CommitSamples += t.CommitSamples
		pt.AbortSamples += t.AbortSamples
	}
	if db.Root != nil {
		addNode(a.tree.Root, db.Root)
	}
}

// Shards returns the number of databases added.
func (a *Aggregate) Shards() int { return a.shards }

// Programs returns the program names added, sorted.
func (a *Aggregate) Programs() []string {
	progs := make([]string, 0, len(a.programs))
	for p := range a.programs {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	return progs
}

// Database renders the aggregate as a database named program. Threads
// sort by TID and CCT children by frame, so equal aggregates render
// equal bytes. The aggregate stays usable.
func (a *Aggregate) Database(program string) *Database {
	db := &Database{
		Version: FormatVersion,
		Program: program,
		Threads: a.threads,
		Periods: a.periods,
		Totals:  a.totals,
		Quality: a.quality,
		Partial: a.partial,
		Root:    toNode(a.tree.Root),
	}
	tids := make([]int, 0, len(a.perThread))
	for tid := range a.perThread {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		db.PerThread = append(db.PerThread, *a.perThread[tid])
	}
	return db
}

// MergeAll folds dbs through one Aggregate into a database named by
// the "+"-joined union of their programs. It returns nil for no
// databases and a single database unchanged; the inputs are not
// modified.
func MergeAll(dbs []*Database) *Database {
	switch len(dbs) {
	case 0:
		return nil
	case 1:
		return dbs[0]
	}
	a := NewAggregate()
	for _, db := range dbs {
		a.Add(db)
	}
	return a.Database(strings.Join(a.Programs(), "+"))
}

// addNode sums a serialized CCT into a live one, matching children by
// frame; duplicate sibling frames sum into one context.
func addNode(dst *core.Node, src *Node) {
	dst.Data.Merge(&src.Metrics)
	for _, c := range src.Children {
		addNode(dst.Child(lbr.IP{Fn: c.Fn, Site: c.Site}), c)
	}
}

// toNode converts a live CCT into its serialized form, children in
// frame order.
func toNode(n *core.Node) *Node {
	out := &Node{Fn: n.Frame.Fn, Site: n.Frame.Site, Metrics: n.Data}
	for _, c := range n.Children() {
		out.Children = append(out.Children, toNode(c))
	}
	return out
}

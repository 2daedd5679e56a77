package fleet

import (
	"fmt"
	"sort"
	"strings"

	"txsampler/internal/cct"
	"txsampler/internal/core"
	"txsampler/internal/lbr"
	"txsampler/internal/profile"
)

// windowAgg is one time window's running aggregate. Every combining
// operation is commutative and associative (sums, maxima, set
// unions, CCT metric merges), so the aggregate is a pure function of
// the *set* of accepted shards — arrival order, retry interleavings,
// and kill/restart replays all render to byte-identical databases.
type windowAgg struct {
	shards    int
	programs  map[string]struct{}
	threads   int
	periods   [5]uint64
	totals    core.Metrics
	quality   core.DataQuality
	perThread map[int]*profile.Thread
	tree      *cct.Tree[core.Metrics]
}

func newWindowAgg() *windowAgg {
	return &windowAgg{
		programs:  make(map[string]struct{}),
		perThread: make(map[int]*profile.Thread),
		tree:      cct.NewTree[core.Metrics](),
	}
}

// add folds one shard database into the aggregate.
func (a *windowAgg) add(db *profile.Database) {
	a.shards++
	if db.Program != "" {
		a.programs[db.Program] = struct{}{}
	}
	if db.Threads > a.threads {
		a.threads = db.Threads
	}
	for i, p := range db.Periods {
		if p > a.periods[i] {
			a.periods[i] = p
		}
	}
	a.totals.Merge(&db.Totals)
	a.quality.Merge(db.Quality)
	for _, t := range db.PerThread {
		pt := a.perThread[t.TID]
		if pt == nil {
			pt = &profile.Thread{TID: t.TID}
			a.perThread[t.TID] = pt
		}
		pt.CommitSamples += t.CommitSamples
		pt.AbortSamples += t.AbortSamples
	}
	if db.Root != nil {
		mergeNode(a.tree.Root, db.Root)
	}
}

// mergeNode folds a serialized CCT into the aggregate tree.
func mergeNode(dst *cct.Node[core.Metrics], src *profile.Node) {
	dst.Data.Merge(&src.Metrics)
	for _, c := range src.Children {
		mergeNode(dst.Child(lbr.IP{Fn: c.Fn, Site: c.Site}), c)
	}
}

// database renders the aggregate as a framed profile database.
// Rendering is deterministic: programs sort lexically, threads sort
// by TID, and CCT children render in the tree's stable frame order.
func (a *windowAgg) database(window int) *profile.Database {
	progs := make([]string, 0, len(a.programs))
	for p := range a.programs {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	db := &profile.Database{
		Version: profile.FormatVersion,
		Program: fmt.Sprintf("fleet/window-%d[%s]", window, strings.Join(progs, "+")),
		Threads: a.threads,
		Periods: a.periods,
		Totals:  a.totals,
		Quality: a.quality,
	}
	tids := make([]int, 0, len(a.perThread))
	for tid := range a.perThread {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		db.PerThread = append(db.PerThread, *a.perThread[tid])
	}
	db.Root = exportNode(a.tree.Root)
	return db
}

// exportNode converts an aggregate CCT node into the serialized form.
func exportNode(n *cct.Node[core.Metrics]) *profile.Node {
	out := &profile.Node{Fn: n.Frame.Fn, Site: n.Frame.Site, Metrics: n.Data}
	for _, c := range n.Children() {
		out.Children = append(out.Children, exportNode(c))
	}
	return out
}

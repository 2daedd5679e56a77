package profile

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/htm"
	"txsampler/internal/lbr"
	"txsampler/internal/rtm"
)

// testDB builds a small database whose contents are a function of the
// arguments, with deliberately unsorted CCT children.
func testDB(program string, tid int, weight uint64) *Database {
	var leaf core.Metrics
	leaf.Time[rtm.ModeNone] = 6 * weight
	leaf.Time[rtm.ModeHTM] = 4 * weight
	leaf.AbortWeight[htm.Conflict] = weight
	leaf.AbortCount[htm.Conflict] = 1
	leaf.FalseSharing = weight / 2
	var q core.DataQuality
	q.MalformedSamples = weight
	return &Database{
		Version: FormatVersion,
		Program: program,
		Threads: tid + 1,
		Periods: [5]uint64{2000000, 20011, 20011, 8009, 8009},
		Totals:  leaf,
		Quality: q,
		PerThread: []Thread{
			{TID: tid, CommitSamples: weight, AbortSamples: 1},
		},
		Root: &Node{
			Fn: "<root>",
			Children: []*Node{
				{Fn: "zeta", Site: "L9", Metrics: leaf},
				{Fn: "alpha", Site: "L1", Metrics: leaf, Children: []*Node{
					{Fn: fmt.Sprintf("leaf-%d", tid), Site: "L2", Metrics: leaf},
				}},
			},
		},
	}
}

func dbBytes(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeCommutes(t *testing.T) {
	a, b := testDB("prog/a", 0, 10), testDB("prog/b", 1, 3)
	before := dbBytes(t, a)
	ab, ba := MergeAll([]*Database{a, b}), MergeAll([]*Database{b, a})
	if !bytes.Equal(dbBytes(t, ab), dbBytes(t, ba)) {
		t.Error("A+B and B+A render differently")
	}
	if !bytes.Equal(dbBytes(t, a), before) {
		t.Error("MergeAll modified an input database")
	}
	if ab.Program != "prog/a+prog/b" {
		t.Errorf("merged program = %q", ab.Program)
	}
	if ab.Totals.AbortWeight[htm.Conflict] != 13 {
		t.Errorf("merged conflict weight = %d, want 13", ab.Totals.AbortWeight[htm.Conflict])
	}
	if len(ab.PerThread) != 2 || ab.PerThread[0].TID != 0 || ab.PerThread[1].TID != 1 {
		t.Errorf("merged per-thread = %+v", ab.PerThread)
	}
	if ab.Threads != 2 {
		t.Errorf("merged threads = %d, want 2", ab.Threads)
	}
	// Matching contexts sum; disjoint leaves both survive.
	var alpha *Node
	for _, c := range ab.Root.Children {
		if c.Fn == "alpha" {
			alpha = c
		}
	}
	if alpha == nil || len(alpha.Children) != 2 {
		t.Fatalf("alpha children not merged: %+v", alpha)
	}
	if alpha.Metrics.W() != 10*10+10*3 {
		t.Errorf("alpha W = %d, want %d", alpha.Metrics.W(), 10*10+10*3)
	}
}

func TestMergeSameThreadSums(t *testing.T) {
	a := MergeAll([]*Database{testDB("prog/a", 0, 5), testDB("prog/a", 0, 7)})
	if a.Program != "prog/a" {
		t.Errorf("program = %q", a.Program)
	}
	if len(a.PerThread) != 1 || a.PerThread[0].CommitSamples != 12 {
		t.Errorf("per-thread = %+v, want one entry with 12 commits", a.PerThread)
	}
	if a.Partial {
		t.Error("merging complete profiles gave a partial one")
	}
	if !MergeAll([]*Database{a, {Version: FormatVersion, Partial: true}}).Partial {
		t.Error("merging a partial profile did not mark the result partial")
	}
}

// TestMergeAllWorkerInvariance: the fold is a function of the set of
// databases, so every input order renders the same bytes.
func TestMergeAllWorkerInvariance(t *testing.T) {
	dbs := make([]*Database, 7)
	for i := range dbs {
		dbs[i] = testDB(fmt.Sprintf("prog/%c", 'a'+i%3), i%4, uint64(2*i+1))
	}
	want := dbBytes(t, MergeAll(dbs))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		order := slices.Clone(dbs)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if !bytes.Equal(dbBytes(t, MergeAll(order)), want) {
			t.Errorf("MergeAll output depends on input order (shuffle %d)", i)
		}
	}
	if MergeAll(nil) != nil {
		t.Error("MergeAll(nil) != nil")
	}
	one := testDB("prog/solo", 0, 1)
	if MergeAll([]*Database{one}) != one {
		t.Error("MergeAll of one database did not return it")
	}
}

// TestAggregateProgramsSplitJoinedNames: a "+"-joined program name
// counts as its members, so re-folding a merged database adds no
// compound names.
func TestAggregateProgramsSplitJoinedNames(t *testing.T) {
	a := NewAggregate()
	a.Add(testDB("prog/b+prog/a", 0, 1))
	a.Add(testDB("prog/c", 1, 1))
	a.Add(testDB("prog/a", 2, 1))
	if got := a.Programs(); !slices.Equal(got, []string{"prog/a", "prog/b", "prog/c"}) {
		t.Errorf("programs = %q", got)
	}
	if a.Shards() != 3 {
		t.Errorf("shards = %d, want 3", a.Shards())
	}
}

// sortTree puts every node's children in frame order, the order a
// rendered aggregate uses.
func sortTree(n *Node) {
	sort.Slice(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		return a.Fn < b.Fn || a.Fn == b.Fn && a.Site < b.Site
	})
	for _, c := range n.Children {
		sortTree(c)
	}
}

// TestAggregateIdentityFold: folding one database renders it back
// unchanged but for the dropped telemetry. The database is filled by
// reflection, so a field the fold forgets comes back zero and fails.
func TestAggregateIdentityFold(t *testing.T) {
	var db Database
	(&filler{tb: t}).fill(reflect.ValueOf(&db).Elem(), "Database", 0)
	db.Version = FormatVersion
	// The fold's canonical shape: the root context is <root>, and
	// siblings and threads are in order.
	db.Root.Fn, db.Root.Site = "<root>", ""
	sortTree(db.Root)
	sort.Slice(db.PerThread, func(i, j int) bool { return db.PerThread[i].TID < db.PerThread[j].TID })
	if !db.Partial || db.Threads <= 0 || strings.Contains(db.Program, "+") ||
		db.PerThread[0].TID == db.PerThread[1].TID || len(db.Root.Children[1].Children) != 2 {
		t.Fatalf("filler left the database unfit for an identity fold: %+v", db)
	}
	a := NewAggregate()
	a.Add(&db)
	want := db
	want.Telemetry = nil
	if got := a.Database(db.Program); !reflect.DeepEqual(got, &want) {
		t.Fatalf("identity fold changed the database:\n got %+v\nwant %+v", got, &want)
	}
	if !slices.Equal(a.Programs(), []string{db.Program}) || a.Shards() != 1 {
		t.Errorf("programs %q, shards %d", a.Programs(), a.Shards())
	}
}

// TestReportSumsDuplicateSiblings: a database whose siblings repeat a
// frame loads as one context holding their sum.
func TestReportSumsDuplicateSiblings(t *testing.T) {
	db := testDB("prog/a", 0, 3)
	zeta := *db.Root.Children[0]
	db.Root.Children = append(db.Root.Children, &zeta)
	n := db.Report().Merged.Root.Lookup(lbr.IP{Fn: "zeta", Site: "L9"})
	if n == nil || n.Data.W() != 2*zeta.Metrics.W() {
		t.Fatalf("duplicate siblings did not sum: %+v", n)
	}
}

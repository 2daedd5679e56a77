package profile

import (
	"bytes"
	"fmt"
	"testing"

	"txsampler/internal/core"
	"txsampler/internal/htm"
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

// reload deep-copies a database through its serialized form, so merge
// tests can mutate one copy and keep the original.
func reload(t *testing.T, db *Database) *Database {
	t.Helper()
	out, err := Read(bytes.NewReader(dbBytes(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMergeCommutes(t *testing.T) {
	a, b := testDB("prog/a", 0, 10), testDB("prog/b", 1, 3)
	ab, ba := reload(t, a), reload(t, b)
	ab.Merge(b)
	ba.Merge(a)
	if !bytes.Equal(dbBytes(t, ab), dbBytes(t, ba)) {
		t.Error("A+B and B+A render differently")
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
	a := testDB("prog/a", 0, 5)
	a.Merge(testDB("prog/a", 0, 7))
	if a.Program != "prog/a" {
		t.Errorf("program = %q", a.Program)
	}
	if len(a.PerThread) != 1 || a.PerThread[0].CommitSamples != 12 {
		t.Errorf("per-thread = %+v, want one entry with 12 commits", a.PerThread)
	}
	if !a.Partial {
		a.Merge(&Database{Version: FormatVersion, Partial: true})
		if !a.Partial {
			t.Error("merging a partial profile did not mark the result partial")
		}
	}
}

func TestMergeAllWorkerInvariance(t *testing.T) {
	build := func() []*Database {
		dbs := make([]*Database, 7)
		for i := range dbs {
			dbs[i] = testDB(fmt.Sprintf("prog/%c", 'a'+i%3), i%4, uint64(2*i+1))
		}
		return dbs
	}
	var rendered [][]byte
	for _, workers := range []int{1, 4, 8} {
		merged := MergeAll(build(), workers)
		rendered = append(rendered, dbBytes(t, merged))
	}
	for i := 1; i < len(rendered); i++ {
		if !bytes.Equal(rendered[0], rendered[i]) {
			t.Errorf("MergeAll output differs between worker counts (variant %d)", i)
		}
	}
	if MergeAll(nil, 4) != nil {
		t.Error("MergeAll(nil) != nil")
	}
	one := testDB("prog/solo", 0, 1)
	if MergeAll([]*Database{one}, 4) != one {
		t.Error("MergeAll of one database did not return it")
	}
}

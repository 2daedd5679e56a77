package pmem

import (
	"testing"

	"txsampler/internal/faults"
	"txsampler/internal/mem"
)

func testFrame(line mem.Addr, seed mem.Word) undoFrame {
	var f undoFrame
	f.line = line
	for i := range f.vals {
		f.vals[i] = seed + mem.Word(i)
	}
	return f
}

func TestRecoverRollsBackUncommittedTail(t *testing.T) {
	img := mem.NewMemory()
	f1 := testFrame(0x1000, 100) // committed: must NOT be restored
	f2 := testFrame(0x2000, 200) // uncommitted: must be restored
	for i := 0; i < mem.WordsPerLine; i++ {
		img.Store(f1.line.Offset(i), 1) // post-commit data stays
		img.Store(f2.line.Offset(i), 2) // uncommitted data reverts
	}
	var log []byte
	log = appendUndo(log, 1, f1)
	log = appendCommit(log, 1)
	log = appendUndo(log, 2, f2)

	rec := Recover(log, img)
	if rec.Entries != 2 || rec.Commits != 1 || rec.RolledBack != 1 || rec.Torn || rec.Corrupt {
		t.Fatalf("rec = %+v, want 2 entries, 1 commit, 1 rolled back", rec)
	}
	if rec.Clean() {
		t.Fatal("recovery with rollback reported Clean")
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if got := img.Load(f1.line.Offset(i)); got != 1 {
			t.Fatalf("committed line reverted: word %d = %d", i, got)
		}
		if got, want := img.Load(f2.line.Offset(i)), f2.vals[i]; got != want {
			t.Fatalf("uncommitted line word %d = %d, want pre-image %d", i, got, want)
		}
	}
}

func TestRecoverNewestFirstWins(t *testing.T) {
	// Two uncommitted records for the SAME line: the older pre-image
	// (first touch) must win, which newest-first replay guarantees.
	img := mem.NewMemory()
	older := testFrame(0x3000, 10)
	newer := testFrame(0x3000, 99)
	var log []byte
	log = appendUndo(log, 1, newer)
	log = appendUndo(log, 1, older)
	rec := Recover(log, img)
	if rec.RolledBack != 2 {
		t.Fatalf("RolledBack = %d, want 2", rec.RolledBack)
	}
	if got, want := img.Load(mem.Addr(0x3000)), newer.vals[0]; got != want {
		t.Fatalf("replay order wrong: word = %d, want %d (appended-first record replayed last)", got, want)
	}
}

func TestRecoverTornTail(t *testing.T) {
	var log []byte
	log = appendUndo(log, 1, testFrame(0x1000, 1))
	for cut := 1; cut < undoFrameSize; cut++ {
		rec := Recover(log[:cut], mem.NewMemory())
		if !rec.Torn {
			t.Fatalf("cut at %d bytes not flagged Torn: %+v", cut, rec)
		}
		if rec.Clean() {
			t.Fatalf("torn log reported Clean at cut %d", cut)
		}
	}
}

func TestRecoverBitFlip(t *testing.T) {
	var log []byte
	log = appendUndo(log, 1, testFrame(0x1000, 1))
	log = appendCommit(log, 1)
	for bit := 0; bit < len(log)*8; bit++ {
		mutated := append([]byte(nil), log...)
		mutated[bit/8] ^= 1 << (bit % 8)
		rec := Recover(mutated, mem.NewMemory())
		if rec.Clean() {
			t.Fatalf("bit flip at %d reported Clean: %+v", bit, rec)
		}
	}
}

func TestRecoverIdempotent(t *testing.T) {
	img := mem.NewMemory()
	var log []byte
	log = appendUndo(log, 1, testFrame(0x1000, 7))
	log = appendUndo(log, 1, testFrame(0x2000, 17))
	Recover(log, img)
	first := img.Fingerprint()
	Recover(log, img)
	if img.Fingerprint() != first {
		t.Fatal("recovery replay is not idempotent")
	}
}

func TestRecoverRejectsUnalignedLine(t *testing.T) {
	// Checksummed frames naming an unaligned line, or a line past the
	// address space, are corrupt.
	for _, line := range []mem.Addr{0x1003, mem.Limit, 1 << 50} {
		log := appendUndo(nil, 1, undoFrame{line: line})
		rec := Recover(log, mem.NewMemory())
		if !rec.Corrupt || rec.RolledBack != 0 {
			t.Errorf("line address %s not flagged Corrupt: %+v", line, rec)
		}
	}
}

func TestDomainFirstTouchLogging(t *testing.T) {
	d := New(faults.Plan{}, 1)
	base := mem.Addr(0x4000)
	d.Track(base, 2*mem.WordsPerLine)
	d.Begin(0)
	if cost := d.OnStore(0, base, 1); cost != LogCost {
		t.Fatalf("first store cost = %d, want LogCost %d", cost, LogCost)
	}
	if cost := d.OnStore(0, base.Offset(1), 2); cost != 0 {
		t.Fatalf("second store to the same line cost = %d, want 0", cost)
	}
	if cost := d.OnStore(0, base+mem.LineSize, 3); cost != LogCost {
		t.Fatalf("store to a second line cost = %d, want LogCost", cost)
	}
	if cost := d.OnStore(0, base+0x10000, 4); cost != 0 {
		t.Fatal("untracked store charged a log cost")
	}
	if got := len(d.DirtyLines(0)); got != 2 {
		t.Fatalf("DirtyLines = %d, want 2", got)
	}
	if got := d.img.Load(base); got != 1 {
		t.Fatalf("write-through missing: img word = %d, want 1", got)
	}
}

func TestDomainArmTriggers(t *testing.T) {
	d := New(faults.Plan{
		PmemCrashPoint: faults.PmemCrashMidLog, PmemCrashEvery: 3,
	}, 1)
	var fired []uint64
	for i := uint64(1); i <= 9; i++ {
		if d.Arm(0) != "" {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("crash-every=3 fired at %v, want [3 6 9]", fired)
	}

	nth := New(faults.Plan{PmemCrashPoint: faults.PmemCrashTornTail}, 1)
	// PmemCrashTx defaults to 1 when a point is set without a trigger.
	if nth.Arm(0) == "" {
		t.Fatal("defaulted crash-tx=1 did not fire on the first commit")
	}
	if nth.Arm(0) != "" {
		t.Fatal("crash-tx=1 fired again on the second commit")
	}
}

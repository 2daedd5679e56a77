package profile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"txsampler/internal/faults"
	"txsampler/internal/record"
)

// saved writes a small valid database and returns its bytes.
func saved(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := FromReport(buildReport(t)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFailureTaxonomy asserts that every damage class maps to its
// typed error: truncation, trailing garbage, version mismatch, and
// bit flips are distinguished, never silently loaded.
func TestReadFailureTaxonomy(t *testing.T) {
	good := saved(t)
	headerEnd := bytes.IndexByte(good, '\n') + 1
	bitflip := append([]byte(nil), good...)
	bitflip[headerEnd+len(bitflip[headerEnd:])/2] ^= 0x20
	crcflip := append([]byte(nil), good...)
	crcflip[headerEnd+5] ^= 0x01
	// An intact frame around a payload whose SHA-256 does not match.
	payload := bytes.Clone(good[headerEnd+8:])
	payload[0] ^= 0x01
	shaflip, err := record.AppendFrame(good[:headerEnd:headerEnd], payload)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty file", nil, record.ErrTruncated},
		{"header cut short", good[:headerEnd/2], record.ErrTruncated},
		{"payload cut short", good[:headerEnd+(len(good)-headerEnd)/2], record.ErrTruncated},
		{"missing last byte", good[:len(good)-1], record.ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), good...), "junk"...), record.ErrCorrupt},
		{"bit-flipped payload", bitflip, record.ErrCorrupt},
		{"damaged crc field", crcflip, record.ErrCorrupt},
		{"sha256 mismatch", shaflip, record.ErrCorrupt},
		{"bad magic", append([]byte("xxprofdb"), good[len(magic):]...), record.ErrCorrupt},
		{"headerless junk", []byte("not a database"), record.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadVersionMismatch(t *testing.T) {
	var ve *VersionError
	// A framed database from a future format version: the current
	// database with its magic line's version bumped.
	good := string(saved(t))
	cur := string(record.Header(magic, FormatVersion))
	if !strings.HasPrefix(good, cur) {
		t.Fatalf("database does not start with %q", cur)
	}
	future := string(record.Header(magic, FormatVersion+1)) + good[len(cur):]
	if _, err := Read(strings.NewReader(future)); !errors.As(err, &ve) || ve.Got != FormatVersion+1 || ve.Want != FormatVersion {
		t.Fatalf("future version: got %v, want *VersionError{Got:%d}", err, FormatVersion+1)
	}
	// Complete, checksummed databases the v2 and v3 writers produced
	// (text header with len, crc32 and sha256 fields) and the v4 writer
	// produced (framed JSON) are version mismatches too: no decode path
	// for them.
	for _, v := range []int{2, 3, 4} {
		f, err := os.Open(fmt.Sprintf("testdata/v%d.json", v))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Read(f)
		f.Close()
		if !errors.As(err, &ve) || ve.Got != v || ve.Want != FormatVersion {
			t.Fatalf("framed v%d: got %v, want *VersionError{Got:%d}", v, err, v)
		}
		if want := fmt.Sprintf("profile: unsupported version %d (want %d)", v, FormatVersion); err.Error() != want {
			t.Fatalf("framed v%d: error %q, want %q", v, err, want)
		}
	}
	// A headerless version-1 file (the seed format) is a version
	// mismatch, not corruption: the bytes are fine, the format is old.
	if _, err := Read(strings.NewReader(`{"version": 1, "program": "old"}`)); !errors.As(err, &ve) || ve.Got != 1 {
		t.Fatalf("legacy v1: got %v, want *VersionError{Got:1}", err)
	}
}

// TestSaveAtomic asserts the crash-safety contract: a successful Save
// leaves exactly the database (no temp debris), and the saved file
// verifies.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	db := FromReport(buildReport(t))
	// Regression for the seed's double f.Close() in Save: saving twice
	// over the same path must succeed and keep the file loadable.
	for i := 0; i < 2; i++ {
		if err := db.Save(path); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "p.json" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	db, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Version != FormatVersion || db.Partial || db.Program != "test/prog" {
		t.Fatalf("loaded version %d, partial %v, program %q", db.Version, db.Partial, db.Program)
	}
}

// TestSaveCrashTornFileDetected injects a crash at several write
// offsets, from the first byte to the last, and asserts the torn file
// is detected as truncated (or, for a crash inside the header,
// corrupt) — never silently loaded.
func TestSaveCrashTornFileDetected(t *testing.T) {
	dir := t.TempDir()
	db := FromReport(buildReport(t))
	n := uint64(len(saved(t)))
	for _, offset := range []uint64{0, 10, n / 2, n - 1} {
		path := filepath.Join(dir, "torn.json")
		err := db.SaveCrash(path, offset)
		if !errors.Is(err, faults.ErrCrashWrite) {
			t.Fatalf("offset %d: SaveCrash returned %v", offset, err)
		}
		st, serr := os.Stat(path)
		if serr != nil {
			t.Fatalf("offset %d: torn file missing: %v", offset, serr)
		}
		if got := uint64(st.Size()); got != offset {
			t.Fatalf("offset %d: torn file has %d bytes", offset, got)
		}
		if _, lerr := Load(path); !errors.Is(lerr, record.ErrTruncated) && !errors.Is(lerr, record.ErrCorrupt) {
			t.Fatalf("offset %d: torn file loaded as %v", offset, lerr)
		}
	}
}

func TestPartialRoundTrip(t *testing.T) {
	r := buildReport(t)
	r.Partial = true
	db := FromReport(r)
	if !db.Partial {
		t.Fatal("Partial not stamped into the database")
	}
	path := filepath.Join(t.TempDir(), "partial.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial {
		t.Fatal("Partial lost on disk")
	}
	if !got.Report().Partial {
		t.Fatal("Partial lost in report reconstruction")
	}
}

func TestFsck(t *testing.T) {
	dir := t.TempDir()
	db := FromReport(buildReport(t))
	if err := db.Save(filepath.Join(dir, "good.json")); err != nil {
		t.Fatal(err)
	}
	partial := FromReport(buildReport(t))
	partial.Partial = true
	if err := partial.Save(filepath.Join(dir, "partial.json")); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveCrash(filepath.Join(dir, "torn.json"), 64); !errors.Is(err, faults.ErrCrashWrite) {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "leftover.json.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The campaign journal is not a database and must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "campaign.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	res, err := Fsck(&out, []string{dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 3 || res.Clean != 2 || res.Partial != 1 || res.Bad != 1 || res.Orphans != 1 || res.Repaired != 0 {
		t.Fatalf("dry run result = %+v\n%s", res, out.String())
	}
	if !res.Problems() {
		t.Fatal("problems not reported")
	}

	res, err = Fsck(&out, []string{dir}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 2 {
		t.Fatalf("repair result = %+v\n%s", res, out.String())
	}
	// After repair the directory is clean: torn file quarantined, temp
	// removed.
	res, err = Fsck(&out, []string{dir}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Problems() || res.Scanned != 2 || res.Clean != 2 {
		t.Fatalf("post-repair result = %+v\n%s", res, out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.json.corrupt")); err != nil {
		t.Fatalf("quarantine missing: %v", err)
	}
}

func TestFsckSingleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.json")
	if err := FromReport(buildReport(t)).Save(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := Fsck(&out, []string{path}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 1 || res.Clean != 1 || res.Problems() {
		t.Fatalf("result = %+v", res)
	}
	if _, err := Fsck(&out, []string{filepath.Join(t.TempDir(), "missing.json")}, false); err == nil {
		t.Fatal("missing path not reported")
	}
}

// TestReadHeaderFieldDamage exercises the magic line's field-level
// validation: every malformed field is corruption, never a crash or a
// silent default.
func TestReadHeaderFieldDamage(t *testing.T) {
	good := string(saved(t))
	headerEnd := strings.IndexByte(good, '\n') + 1
	header := good[:headerEnd-1]
	payload := good[headerEnd:]
	fields := strings.Fields(header) // magic version

	cases := []struct {
		name   string
		header string
	}{
		{"missing field", fields[0]},
		{"extra field", header + " extra=1"},
		{"non-numeric version", magic + " two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.header + "\n" + payload))
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("got %v, want record.ErrCorrupt", err)
			}
		})
	}
	for _, tc := range cases {
		if tc.header == header {
			t.Errorf("case %q left the header intact", tc.name)
		}
	}
	want := fmt.Sprintf("profile: unsupported version %d (want %d)", FormatVersion+1, FormatVersion)
	if got := (&VersionError{Got: FormatVersion + 1, Want: FormatVersion}).Error(); got != want {
		t.Fatalf("VersionError.Error() = %q, want %q", got, want)
	}
}

// TestSaveErrorPaths: a failed save must not leave temp debris or
// touch an existing destination.
func TestSaveErrorPaths(t *testing.T) {
	db := FromReport(buildReport(t))
	if err := db.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "p.json")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveCrash(filepath.Join(dir, "no", "such", "t.json"), 10); err == nil ||
		errors.Is(err, faults.ErrCrashWrite) {
		t.Fatalf("SaveCrash open failure: %v", err)
	}
	// Crash offset beyond the encoding still reports the injected crash.
	big := filepath.Join(dir, "big.json")
	if err := db.SaveCrash(big, 1<<40); !errors.Is(err, faults.ErrCrashWrite) {
		t.Fatalf("SaveCrash beyond end: %v", err)
	}
	// ... but the full prefix happens to be the whole database.
	if _, err := Load(big); err != nil {
		t.Fatalf("full-length crash write should load: %v", err)
	}
}

func TestFsckResultString(t *testing.T) {
	s := FsckResult{Scanned: 3, Clean: 2, Partial: 1, Bad: 1, Orphans: 1, Repaired: 2}.String()
	for _, want := range []string{"3 scanned", "2 clean", "1 partial", "1 bad", "1 orphaned", "2 repaired"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

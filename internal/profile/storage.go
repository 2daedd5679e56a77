package profile

// Crash-consistent on-disk storage. A database is a record file (see
// internal/record) of one frame: "txprofdb <version>\n", then length,
// CRC32, and the payload — the JSON's SHA-256, then indented JSON.
// Load tells a torn write (record.ErrTruncated) from bit rot or
// trailing garbage (record.ErrCorrupt) from a format change
// (*VersionError): re-running the producer fixes the first two, the
// third needs a different reader. Save is atomic: the payload is
// written to a temporary file in the same directory, fsynced, renamed
// over the destination, and the directory is fsynced — a crash at any
// write offset leaves either the old complete database or a torn temp
// file that Fsck removes, never a half-new database under the real
// name.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"txsampler/internal/faults"
	"txsampler/internal/record"
)

// magic names the database format on its magic line.
const magic = "txprofdb"

// TmpSuffix is appended to the temporary file Save writes before the
// atomic rename. A file with this suffix is always garbage: either a
// save in progress or the debris of a crash mid-write.
const TmpSuffix = ".tmp"

// VersionError reports a database written by an incompatible format
// version (including headerless version-1 files).
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("profile: unsupported version %d (want %d)", e.Got, e.Want)
}

// encode renders the framed representation: the magic line, then one
// frame holding the JSON's SHA-256 and the JSON.
func (db *Database) encode() ([]byte, error) {
	var payload bytes.Buffer
	payload.Write(make([]byte, sha256.Size))
	enc := json.NewEncoder(&payload)
	enc.SetIndent("", "  ")
	if err := enc.Encode(db); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := payload.Bytes()
	sum := sha256.Sum256(p[sha256.Size:])
	copy(p, sum[:])
	return record.AppendFrame(record.Header(magic, db.Version), p)
}

// Write serializes the database in the framed format.
func (db *Database) Write(w io.Writer) error {
	buf, err := db.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read parses a framed database, verifying the frame, the checksums,
// and the version. Failures wrap record.ErrTruncated,
// record.ErrCorrupt, or *VersionError.
func Read(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return Decode(data)
}

// Decode is Read of a database already in memory.
func Decode(data []byte) (*Database, error) {
	if len(data) > 0 && data[0] == '{' {
		// Headerless version-1 file (bare JSON, no integrity check).
		var db Database
		if err := json.Unmarshal(data, &db); err != nil {
			return nil, fmt.Errorf("profile: %w: headerless and undecodable", record.ErrCorrupt)
		}
		return nil, &VersionError{Got: db.Version, Want: FormatVersion}
	}
	frames, err := record.ParseHeader(data, magic, FormatVersion)
	var ve *record.VersionError
	if errors.As(err, &ve) {
		return nil, &VersionError{Got: ve.Got, Want: ve.Want}
	}
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, rest, err := record.Next(frames)
	if err != nil {
		return nil, fmt.Errorf("profile: %w: bad payload frame", err)
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("profile: %w: trailing garbage after payload", record.ErrCorrupt)
	}
	if len(p) < sha256.Size || sha256.Sum256(p[sha256.Size:]) != [sha256.Size]byte(p[:sha256.Size]) {
		return nil, fmt.Errorf("profile: %w: sha256 mismatch", record.ErrCorrupt)
	}
	var db Database
	if err := json.Unmarshal(p[sha256.Size:], &db); err != nil {
		return nil, fmt.Errorf("profile: %w: checksummed payload is not valid JSON: %v", record.ErrCorrupt, err)
	}
	if db.Version != FormatVersion {
		return nil, fmt.Errorf("profile: %w: payload version %d contradicts header version %d", record.ErrCorrupt, db.Version, FormatVersion)
	}
	return &db, nil
}

// Save writes the database to path atomically: temp file in the same
// directory, fsync, rename, directory fsync. Readers never observe a
// half-written database, and a crash leaves at worst a TmpSuffix file.
func (db *Database) Save(path string) error {
	buf, err := db.encode()
	if err != nil {
		return err
	}
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// One close path only (the seed's Save raced a deferred Close
	// against an explicit one); any failure removes the temp file so
	// the destination is either the old database or the new one.
	err = func() error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	}()
	if err != nil {
		f.Close() // no-op when the write path already closed it
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// SaveCrash writes the database non-atomically, straight to path, and
// tears the write after failAfter bytes — the storage half of the
// faults package's crash-at-write-offset mode. The destination is left
// genuinely torn (a prefix of the framed encoding) exactly as a
// process kill mid-write of the pre-atomic writer would, so recovery
// paths are exercised against real damage. Always returns an error
// wrapping faults.ErrCrashWrite.
func (db *Database) SaveCrash(path string, failAfter uint64) error {
	buf, err := db.encode()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := faults.CrashWriter(f, failAfter)
	_, werr := cw.Write(buf)
	f.Close()
	if werr == nil {
		werr = faults.ErrCrashWrite // offset beyond the encoding still "crashes"
	}
	return fmt.Errorf("profile: save %s: %w", path, werr)
}

// syncDir fsyncs a directory so the rename itself is durable. Errors
// are ignored: some filesystems reject directory fsync, and the data
// file was already synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Load reads a database from path. Failures wrap record.ErrTruncated,
// record.ErrCorrupt, or *VersionError (besides plain I/O errors).
func Load(path string) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// FsckResult summarizes one Fsck pass.
type FsckResult struct {
	Scanned  int // databases examined
	Clean    int // databases that verified (including partial ones)
	Partial  int // verified databases stamped Partial
	Bad      int // truncated / corrupt / version-mismatched databases
	Orphans  int // leftover TmpSuffix files
	Repaired int // files quarantined or removed by repair mode
}

// Problems reports whether the scan found anything wrong. Partial
// databases are not problems: they are valid flushes of canceled runs
// that a resumed campaign replaces.
func (r FsckResult) Problems() bool { return r.Bad > 0 || r.Orphans > 0 }

// String is the one-line summary cmd/profck prints.
func (r FsckResult) String() string {
	return fmt.Sprintf("profck: %d scanned, %d clean (%d partial), %d bad, %d orphaned tmp, %d repaired",
		r.Scanned, r.Clean, r.Partial, r.Bad, r.Orphans, r.Repaired)
}

// Fsck scans profile databases (each path a database file or a
// directory holding *.json databases), verifies every one, and reports
// a line per file to w. With repair true it quarantines damaged
// databases by renaming them to <name>.corrupt — so a resumed campaign
// re-runs the shard instead of silently loading bad data — and removes
// orphaned temp files. The scan continues past damaged files; only I/O
// failures walking the paths abort it.
func Fsck(w io.Writer, paths []string, repair bool) (FsckResult, error) {
	var res FsckResult
	var files, orphans []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return res, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			switch {
			case strings.HasSuffix(path, TmpSuffix):
				orphans = append(orphans, path)
			case strings.HasSuffix(path, ".json"):
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
	}
	sort.Strings(files)
	sort.Strings(orphans)
	for _, path := range files {
		res.Scanned++
		db, err := Load(path)
		switch {
		case err == nil && db.Partial:
			res.Clean++
			res.Partial++
			fmt.Fprintf(w, "%s: ok (partial: flushed by a canceled run)\n", path)
		case err == nil:
			res.Clean++
			fmt.Fprintf(w, "%s: ok\n", path)
		default:
			res.Bad++
			fmt.Fprintf(w, "%s: %v\n", path, err)
			if repair {
				if rerr := os.Rename(path, path+".corrupt"); rerr == nil {
					res.Repaired++
					fmt.Fprintf(w, "%s: quarantined as %s.corrupt\n", path, path)
				} else {
					fmt.Fprintf(w, "%s: quarantine failed: %v\n", path, rerr)
				}
			}
		}
	}
	for _, path := range orphans {
		res.Orphans++
		fmt.Fprintf(w, "%s: orphaned temp file (crash mid-save)\n", path)
		if repair {
			if rerr := os.Remove(path); rerr == nil {
				res.Repaired++
				fmt.Fprintf(w, "%s: removed\n", path)
			} else {
				fmt.Fprintf(w, "%s: remove failed: %v\n", path, rerr)
			}
		}
	}
	return res, nil
}

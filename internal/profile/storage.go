package profile

// Crash-consistent on-disk storage. A database is a framed file:
//
//	txprofdb <version> len=<payload bytes> crc32=<hex8> sha256=<hex64>\n
//	<payload: indented JSON, exactly len bytes>
//
// The header carries both a CRC32 (cheap first-line check) and a
// SHA-256 (strong integrity) over the payload, so Load can distinguish
// a torn write (payload shorter than the header claims: ErrTruncated)
// from bit rot or trailing garbage (ErrCorrupt) from a format change
// (*VersionError). Save is atomic: the payload is written to a
// temporary file in the same directory, fsynced, renamed over the
// destination, and the directory is fsynced — a crash at any write
// offset leaves either the old complete database or a torn temp file
// that Fsck removes, never a half-new database under the real name.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"txsampler/internal/faults"
)

// magic is the first header token of a framed database.
const magic = "txprofdb"

// TmpSuffix is appended to the temporary file Save writes before the
// atomic rename. A file with this suffix is always garbage: either a
// save in progress or the debris of a crash mid-write.
const TmpSuffix = ".tmp"

// Typed load failures. Load and Read wrap exactly one of these (or a
// plain I/O error) so callers can triage a damaged database:
// re-running the producer fixes a truncated or corrupt file, while a
// version mismatch needs a different reader.
var (
	// ErrTruncated marks a database cut short mid-write: the payload
	// is shorter than the header claims, or the header itself is
	// incomplete.
	ErrTruncated = errors.New("truncated profile database")
	// ErrCorrupt marks a database whose bytes are all present but
	// wrong: checksum mismatch, trailing garbage, or undecodable
	// payload.
	ErrCorrupt = errors.New("corrupt profile database")
)

// VersionError reports a database written by an incompatible format
// version (including headerless version-1 files).
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("profile: unsupported version %d (want %d)", e.Got, e.Want)
}

// encode renders the framed representation: header line + payload.
func (db *Database) encode() ([]byte, error) {
	var payload bytes.Buffer
	enc := json.NewEncoder(&payload)
	enc.SetIndent("", "  ")
	if err := enc.Encode(db); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := payload.Bytes()
	sum := sha256.Sum256(p)
	header := fmt.Sprintf("%s %d len=%d crc32=%08x sha256=%s\n",
		magic, db.Version, len(p), crc32.ChecksumIEEE(p), hex.EncodeToString(sum[:]))
	return append([]byte(header), p...), nil
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

// header is the parsed first line of a framed database.
type header struct {
	version int
	length  int
	crc     uint32
	sha     string
}

func parseHeader(line string) (header, error) {
	var h header
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != magic {
		return h, fmt.Errorf("profile: %w: bad header", ErrCorrupt)
	}
	var err error
	if h.version, err = strconv.Atoi(fields[1]); err != nil {
		return h, fmt.Errorf("profile: %w: bad header version", ErrCorrupt)
	}
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return h, fmt.Errorf("profile: %w: bad header field %q", ErrCorrupt, f)
		}
		switch key {
		case "len":
			h.length, err = strconv.Atoi(val)
		case "crc32":
			var v uint64
			v, err = strconv.ParseUint(val, 16, 32)
			h.crc = uint32(v)
		case "sha256":
			h.sha = val
		default:
			return h, fmt.Errorf("profile: %w: unknown header field %q", ErrCorrupt, key)
		}
		if err != nil {
			return h, fmt.Errorf("profile: %w: bad header field %q", ErrCorrupt, f)
		}
	}
	if h.length < 0 || len(h.sha) != 2*sha256.Size {
		return h, fmt.Errorf("profile: %w: bad header", ErrCorrupt)
	}
	return h, nil
}

// Read parses a framed database, verifying length, checksums, and
// version. Failures wrap ErrTruncated, ErrCorrupt, or *VersionError.
func Read(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("profile: %w: empty database", ErrTruncated)
	}
	if first[0] == '{' {
		// Headerless version-1 file (bare JSON, no integrity check).
		var db Database
		if err := json.NewDecoder(br).Decode(&db); err != nil {
			return nil, fmt.Errorf("profile: %w: headerless and undecodable", ErrCorrupt)
		}
		return nil, &VersionError{Got: db.Version, Want: FormatVersion}
	}
	if pre, err := br.Peek(len(magic) + 1); err != nil || string(pre) != magic+" " {
		return nil, fmt.Errorf("profile: %w: bad magic", ErrCorrupt)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("profile: %w: unterminated header", ErrTruncated)
	}
	h, err := parseHeader(line)
	if err != nil {
		return nil, err
	}
	if h.version != FormatVersion {
		return nil, &VersionError{Got: h.version, Want: FormatVersion}
	}
	payload := make([]byte, h.length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("profile: %w: payload has fewer than the %d header-declared bytes", ErrTruncated, h.length)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("profile: %w: trailing garbage after payload", ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(payload); got != h.crc {
		return nil, fmt.Errorf("profile: %w: crc32 %08x does not match header %08x", ErrCorrupt, got, h.crc)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != h.sha {
		return nil, fmt.Errorf("profile: %w: sha256 mismatch", ErrCorrupt)
	}
	var db Database
	if err := json.Unmarshal(payload, &db); err != nil {
		return nil, fmt.Errorf("profile: %w: checksummed payload is not valid JSON: %v", ErrCorrupt, err)
	}
	if db.Version != h.version {
		return nil, fmt.Errorf("profile: %w: payload version %d contradicts header version %d", ErrCorrupt, db.Version, h.version)
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

// Load reads a database from path. Failures wrap ErrTruncated,
// ErrCorrupt, or *VersionError (besides plain I/O errors).
func Load(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Info summarizes a verified database.
type Info struct {
	Version int
	Partial bool
	Program string
}

// Verify fully checks one database: header, payload length, both
// checksums, version, and JSON decodability. The returned Info is
// valid only when err is nil.
func Verify(path string) (Info, error) {
	db, err := Load(path)
	if err != nil {
		return Info{}, err
	}
	return Info{Version: db.Version, Partial: db.Partial, Program: db.Program}, nil
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
		info, err := Verify(path)
		switch {
		case err == nil && info.Partial:
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

// Package record owns the shape of every host file the repository
// persists — the profile database and the campaign and fleet journals:
//
//	<magic> <version>\n
//	length u32 | crc32 u32 | payload     (little-endian, repeated)
//
// The IEEE CRC32 covers the length field and the payload, so a damaged
// length or a zero-filled frame fails it too; it is the pmem undo log's
// framing, after the go-redis-pmem undo log. A Log is an append-only
// file of frames whose replay truncates a bad frame, as the torn tail
// of a crashed append, only when no intact frame starts anywhere after
// it. Any other damage is refused with the file left as it was:
// acknowledged data is never truncated away.
package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

const frameHeader = 8 // the length and CRC fields in front of every payload

var (
	// ErrTruncated marks a magic line or frame cut short: a torn write.
	ErrTruncated = errors.New("truncated record file")
	// ErrCorrupt marks bytes present but wrong: a foreign magic line, a
	// CRC mismatch, bytes no frame accounts for, a rejected payload.
	ErrCorrupt = errors.New("corrupt record file")
)

// VersionError reports a magic line naming another format version.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("unsupported version %d (want %d)", e.Got, e.Want)
}

// Header returns the magic line that starts a file of the given format.
func Header(magic string, version int) []byte {
	return []byte(magic + " " + strconv.Itoa(version) + "\n")
}

// ParseHeader checks the magic line at the start of data and returns
// the frames after it. A line naming another version is a
// *VersionError whatever follows the number, so a file with an older,
// longer header is a version mismatch, not damage.
func ParseHeader(data []byte, magic string, version int) ([]byte, error) {
	prefix := magic + " "
	line, frames, ok := bytes.Cut(data, []byte{'\n'})
	if !ok && (bytes.HasPrefix(data, []byte(prefix)) || strings.HasPrefix(prefix, string(data))) {
		return nil, fmt.Errorf("%w: magic line cut short", ErrTruncated)
	}
	rest, found := strings.CutPrefix(string(line), prefix)
	if !ok || !found {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	num, _, _ := strings.Cut(rest, " ")
	got, err := strconv.Atoi(num)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: bad version %q", ErrCorrupt, num)
	case got != version:
		return nil, &VersionError{Got: got, Want: version}
	case string(line)+"\n" != string(Header(magic, version)):
		return nil, fmt.Errorf("%w: malformed magic line %q", ErrCorrupt, line)
	}
	return frames, nil
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > math.MaxUint32 {
		return dst, fmt.Errorf("record: %d-byte payload exceeds the frame limit", len(payload))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(binary.LittleEndian.AppendUint32(dst, 0), payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], checksum(dst[start:]))
	return dst, nil
}

// checksum is the CRC of a frame: its length field and its payload.
func checksum(frame []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(frame[:4]), crc32.IEEETable, frame[frameHeader:])
}

// Next splits the frame at the start of data off the rest. A frame
// that runs past the end of data is ErrTruncated and one whose CRC
// does not match is ErrCorrupt, both bare for the caller to place.
func Next(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeader || uint64(binary.LittleEndian.Uint32(data)) > uint64(len(data)-frameHeader) {
		return nil, data, ErrTruncated
	}
	end := frameHeader + int(binary.LittleEndian.Uint32(data))
	if checksum(data[:end]) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, data, ErrCorrupt
	}
	return data[frameHeader:end], data[end:], nil
}

// split returns the payloads of the intact frames leading data, the
// bytes they span, and why the next frame is bad (nil at the end).
func split(data []byte) (payloads [][]byte, n int, err error) {
	for n < len(data) {
		p, rest, err := Next(data[n:])
		if err != nil {
			return payloads, n, err
		}
		payloads = append(payloads, p)
		n = len(data) - len(rest)
	}
	return payloads, n, nil
}

// intactFrom returns the first offset at or after from where an intact
// frame starts in data, or -1. It tries every offset; a torn tail is
// at most one frame plus whatever a crash left after it.
func intactFrom(data []byte, from int) int {
	for q := from; q+frameHeader <= len(data); q++ {
		if _, _, err := Next(data[q:]); err == nil {
			return q
		}
	}
	return -1
}

// Log is an append-only file of frames after a magic line, fsynced
// frame by frame: a crash can at worst tear the final frame.
type Log struct {
	f    *os.File
	size int64 // the end of the last intact frame
	err  error // a failed append that could not be rolled back
	// writeAt is f.WriteAt; tests replace it to fail a write partway.
	writeAt func(b []byte, off int64) (int, error)
}

// Open opens the log at path, creating it (magic line written and
// fsynced) if missing, and passes every intact frame's payload to
// replay in append order. A bad frame with no intact frame anywhere
// after it is a torn append and is truncated away after replay; any
// other damage, another format or version, and a replay error fail
// Open with the file left as it was.
func Open(path, magic string, version int, replay func(payload []byte) error) (l *Log, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
			err = fmt.Errorf("record: %s: %w", path, err)
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	header := Header(magic, version)
	valid := len(header)
	if len(data) < valid && bytes.HasPrefix(header, data) {
		// New, or its creation crashed mid-magic-line.
		if _, err = f.WriteAt(header, 0); err == nil {
			err = f.Sync()
		}
		if err != nil {
			return nil, err
		}
		return &Log{f: f, size: int64(valid), writeAt: f.WriteAt}, nil
	}
	frames, err := ParseHeader(data, magic, version)
	if err != nil {
		return nil, err
	}
	payloads, n, bad := split(frames)
	if bad != nil {
		if q := intactFrom(data, valid+n+1); q >= 0 {
			return nil, fmt.Errorf("%w: bad frame at offset %d, intact frame at offset %d", ErrCorrupt, valid+n, q)
		}
	}
	for _, p := range payloads {
		if err := replay(p); err != nil {
			return nil, fmt.Errorf("frame at offset %d: %w", valid, err)
		}
		valid += frameHeader + len(p)
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("truncating the torn tail: %w", err)
		}
	}
	return &Log{f: f, size: int64(valid), writeAt: f.WriteAt}, nil
}

// Append writes and fsyncs payload as one frame. A failed write or
// fsync truncates the file back to the frame boundary, so no later
// append lands behind a torn frame; if that rollback fails too, every
// later Append returns its error.
func (l *Log) Append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	frame, err := AppendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if err != nil {
		return err
	}
	if _, err = l.writeAt(frame, l.size); err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("record: %s: rolling back a failed append: %w", l.f.Name(), terr)
		}
		return err
	}
	l.size += int64(len(frame))
	return nil
}

// Size returns the log's intact byte length, magic line included.
func (l *Log) Size() int64 { return l.size }

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

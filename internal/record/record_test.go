package record

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

const (
	testMagic   = "txtest"
	testVersion = 3
)

// writeLog creates a log at a fresh path holding one frame per payload
// and returns the path and the offset each frame starts at, with the
// log's size last.
func writeLog(t *testing.T, payloads ...string) (string, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	_, l, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for _, p := range payloads {
		offs = append(offs, int(l.Size()))
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	offs = append(offs, int(l.Size()))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offs
}

// replay opens the log at path and returns the payloads it replayed.
func replay(path string) ([]string, *Log, error) {
	var got []string
	l, err := Open(path, testMagic, testVersion, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, l, err
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func write(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseHeader(t *testing.T) {
	h := string(Header(testMagic, testVersion))
	if h != "txtest 3\n" {
		t.Fatalf("Header = %q", h)
	}
	cases := []struct {
		data string
		want error
	}{
		{"", ErrTruncated},
		{"txt", ErrTruncated},
		{"txtest 3", ErrTruncated},
		{"txtest 3 len=9", ErrTruncated},
		{"not a record file", ErrCorrupt},
		{"txtest\n", ErrCorrupt},
		{"txtesting 3\n", ErrCorrupt},
		{"txtest three\n", ErrCorrupt},
		{"txtest 3 extra\n", ErrCorrupt},
		{"txtest 03\n", ErrCorrupt},
		{`{"key":"a"}` + "\n", ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := ParseHeader([]byte(tc.data), testMagic, testVersion); !errors.Is(err, tc.want) {
			t.Errorf("ParseHeader(%q) = %v, want %v", tc.data, err, tc.want)
		}
	}
	// Another version is a version mismatch whatever follows the
	// number: older formats had longer magic lines.
	for _, line := range []string{"txtest 2\n", "txtest 2 len=10 crc32=0\n", "txtest 4\n"} {
		var ve *VersionError
		if _, err := ParseHeader([]byte(line), testMagic, testVersion); !errors.As(err, &ve) || ve.Want != testVersion {
			t.Errorf("ParseHeader(%q) = %v, want *VersionError", line, err)
		}
	}
	if got := (&VersionError{Got: 2, Want: 3}).Error(); got != "unsupported version 2 (want 3)" {
		t.Errorf("VersionError.Error() = %q", got)
	}
	frames, err := ParseHeader([]byte(h+"rest"), testMagic, testVersion)
	if err != nil || string(frames) != "rest" {
		t.Fatalf("ParseHeader = %q, %v", frames, err)
	}
}

func TestFrames(t *testing.T) {
	var data []byte
	for _, p := range []string{"one", "", "three"} {
		var err error
		if data, err = AppendFrame(data, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for rest := data; len(rest) > 0; {
		p, next, err := Next(rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p))
		rest = next
	}
	if fmt.Sprint(got) != "[one  three]" {
		t.Fatalf("frames = %q", got)
	}
	damage := func(i int) []byte {
		b := bytes.Clone(data)
		b[i] ^= 0x01
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"short header", data[:frameHeader-1], ErrTruncated},
		{"short payload", data[:frameHeader+2], ErrTruncated},
		{"length", damage(0), ErrCorrupt},
		{"length past the end", damage(3), ErrTruncated},
		{"crc", damage(5), ErrCorrupt},
		{"payload", damage(frameHeader + 1), ErrCorrupt},
		// A zero-filled frame fails its CRC: the CRC of a zero length
		// is not zero.
		{"zeros", make([]byte, 64), ErrCorrupt},
	} {
		if _, _, err := Next(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: Next = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestOpenReplaysInOrder(t *testing.T) {
	path, offs := writeLog(t, "a", "bb", "ccc")
	got, l, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if fmt.Sprint(got) != "[a bb ccc]" || l.Size() != int64(offs[3]) {
		t.Fatalf("replayed %q, size %d", got, l.Size())
	}
}

// TestOpenTruncatesTornTail cuts the final frame at every byte offset
// and ends the log in zeros: each reopens with every earlier record,
// loses only the torn frame, and takes appends on a frame boundary.
func TestOpenTruncatesTornTail(t *testing.T) {
	path, offs := writeLog(t, "first", "second", "third record")
	whole := read(t, path)
	var images [][]byte
	for cut := offs[2]; cut < offs[3]; cut++ {
		images = append(images, whole[:cut])
	}
	images = append(images, append(bytes.Clone(whole), make([]byte, 4096)...))
	for _, image := range images {
		write(t, path, image)
		got, l, err := replay(path)
		if err != nil {
			t.Fatalf("%d-byte image: %v", len(image), err)
		}
		want := "[first second]"
		if len(image) > len(whole) {
			want = "[first second third record]"
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("%d-byte image replayed %q, want %s", len(image), got, want)
		}
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, l, err = replay(path); err != nil || got[len(got)-1] != "after" {
			t.Fatalf("%d-byte image: append after truncation replayed %q, %v", len(image), got, err)
		}
		l.Close()
	}
}

// TestOpenTornMagicLine: a crash while creating the log leaves a
// prefix of its magic line, which reopens as an empty log.
func TestOpenTornMagicLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	header := Header(testMagic, testVersion)
	for cut := 0; cut < len(header); cut++ {
		write(t, path, header[:cut])
		got, l, err := replay(path)
		if err != nil || len(got) != 0 {
			t.Fatalf("%d-byte magic line: replayed %q, %v", cut, got, err)
		}
		l.Close()
		if b := read(t, path); !bytes.Equal(b, header) {
			t.Fatalf("%d-byte magic line: file is %q after open", cut, b)
		}
	}
}

// TestOpenRefusesDamage: damage that is not a torn final frame, a
// foreign magic line and a replay error fail the open and leave the
// file byte-identical.
func TestOpenRefusesDamage(t *testing.T) {
	path, offs := writeLog(t, "first", "second", "third")
	whole := read(t, path)
	flip := func(i int) []byte {
		b := bytes.Clone(whole)
		b[i] ^= 0x40
		return b
	}
	for _, tc := range []struct {
		name  string
		image []byte
		want  error
	}{
		{"byte inside record 2", flip(offs[1] + frameHeader + 2), ErrCorrupt},
		{"record 2 length", flip(offs[1]), ErrCorrupt},
		{"record 2 crc", flip(offs[1] + 4), ErrCorrupt},
		{"record 1 cut short", append(bytes.Clone(whole[:offs[1]-1]), whole[offs[1]:]...), ErrCorrupt},
		{"foreign magic", []byte(`{"key":"a","status":"done"}` + "\n"), ErrCorrupt},
		{"other version", append([]byte("txtest 2\n"), whole[offs[0]:]...), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			write(t, path, tc.image)
			got, _, err := replay(path)
			if err == nil {
				t.Fatalf("open succeeded, replayed %q", got)
			}
			var ve *VersionError
			if tc.want != nil && !errors.Is(err, tc.want) || tc.want == nil && !errors.As(err, &ve) {
				t.Fatalf("open: %v", err)
			}
			if b := read(t, path); !bytes.Equal(b, tc.image) {
				t.Fatalf("refused log rewritten: %d bytes -> %d", len(tc.image), len(b))
			}
		})
	}

	// A replay error fails the open even with a torn tail pending.
	torn := whole[:len(whole)-1]
	write(t, path, torn)
	boom := errors.New("boom")
	_, err := Open(path, testMagic, testVersion, func(p []byte) error {
		if string(p) == "second" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("open: %v, want the replay error", err)
	}
	if b := read(t, path); !bytes.Equal(b, torn) {
		t.Fatalf("log rewritten after a replay error: %d bytes -> %d", len(torn), len(b))
	}
}

// TestAppendRollsBackFailedWrite: a write that fails after a nonzero
// byte count leaves no torn frame behind, so the next acknowledged
// append lands on a frame boundary; a rollback that fails too makes
// every later append fail.
func TestAppendRollsBackFailedWrite(t *testing.T) {
	path, offs := writeLog(t, "first")
	_, l, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	full := func(b []byte, off int64) (int, error) {
		n, _ := l.f.WriteAt(b[:len(b)/2], off)
		return n, syscall.ENOSPC
	}
	l.writeAt = full
	if err := l.Append([]byte("lost to a full disk")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append = %v, want ENOSPC", err)
	}
	if st, _ := os.Stat(path); st.Size() != int64(offs[1]) || l.Size() != int64(offs[1]) {
		t.Fatalf("failed append left %d bytes (size %d), want %d", st.Size(), l.Size(), offs[1])
	}
	l.writeAt = l.f.WriteAt
	if err := l.Append([]byte("second")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if got, l2, err := replay(path); err != nil || fmt.Sprint(got) != "[first second]" {
		t.Fatalf("replayed %q, %v", got, err)
	} else {
		l2.Close()
	}

	// The write fails and so does the rollback: the log is wedged.
	l.writeAt = func(b []byte, off int64) (int, error) {
		n, err := full(b, off)
		l.f.Close()
		return n, err
	}
	if err := l.Append([]byte("third")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append = %v, want ENOSPC", err)
	}
	l.writeAt = l.f.WriteAt
	for i := 0; i < 2; i++ {
		if err := l.Append([]byte("fourth")); err == nil || !errors.Is(err, os.ErrClosed) {
			t.Fatalf("append after a failed rollback: %v", err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	path, _ := writeLog(t)
	if b := read(t, path); !bytes.Equal(b, Header(testMagic, testVersion)) {
		t.Fatalf("new log holds %q", b)
	}
	if _, _, err := replay(filepath.Join(path, "not-a-dir")); err == nil {
		t.Fatal("Open under a file succeeded")
	}
}

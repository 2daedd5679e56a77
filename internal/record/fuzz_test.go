package record

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// intact is the test's own statement of a good frame at the start of
// b, kept apart from Next so the fuzz oracle does not grade itself.
func intact(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(b)-8) {
		return false
	}
	return crc32.Update(crc32.ChecksumIEEE(b[:4]), crc32.IEEETable, b[8:8+n]) == binary.LittleEndian.Uint32(b[4:])
}

// FuzzLogReplay hardens the shared replay rule. For any bytes after
// the magic line, Open either fails and leaves the file byte-identical,
// or truncates it at an offset after which no intact frame starts; the
// payloads it replays are exactly the frames before that offset, and
// the log then takes an append that the next open replays last.
func FuzzLogReplay(f *testing.F) {
	frames := func(payloads ...string) []byte {
		var b []byte
		for _, p := range payloads {
			b, _ = AppendFrame(b, []byte(p))
		}
		return b
	}
	three := frames("first", "second", "third")
	flipped := bytes.Clone(three)
	flipped[2*frameHeader+len("first")+2] ^= 0x01
	f.Add([]byte{})
	f.Add(three)
	f.Add(three[:len(three)-3])                               // torn final frame
	f.Add(append(bytes.Clone(three), make([]byte, 16)...))    // zero-filled tail
	f.Add(flipped)                                            // record 2 damaged
	f.Add(frames("", "", ""))                                 // empty payloads
	f.Add(frames(string(frames("nested")), "x")[:20])         // a torn frame holding a frame
	f.Add([]byte(`{"key":"a","status":"done"}` + "\n" + "{")) // JSONL after the magic line

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "log")
		header := Header(testMagic, testVersion)
		image := append(bytes.Clone(header), body...)
		write(t, path, image)
		var got [][]byte
		l, err := Open(path, testMagic, testVersion, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		after := read(t, path)
		if err != nil {
			if !bytes.Equal(after, image) {
				t.Fatalf("failed open rewrote the file: %d bytes -> %d", len(image), len(after))
			}
			return
		}
		want := header
		for _, p := range got {
			want, _ = AppendFrame(want, p)
		}
		if !bytes.Equal(after, want) || !bytes.HasPrefix(image, after) || l.Size() != int64(len(after)) {
			t.Fatalf("open kept %d of %d bytes, size %d; replayed frames re-encode to %d",
				len(after), len(image), l.Size(), len(want))
		}
		for q := len(after); q < len(image); q++ {
			if intact(image[q:]) {
				t.Fatalf("truncated at %d past an intact frame at %d", len(after), q)
			}
		}

		if err := l.Append([]byte("probe")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		again, l, err := replay(path)
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		l.Close()
		if len(again) != len(got)+1 || again[len(got)] != "probe" {
			t.Fatalf("reopen replayed %d frames ending %q, want %d ending probe", len(again), again[len(again)-1], len(got)+1)
		}
	})
}

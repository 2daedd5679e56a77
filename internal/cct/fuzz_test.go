package cct

import (
	"fmt"
	"testing"

	"txsampler/internal/lbr"
)

// decodeEntries maps an arbitrary byte string onto an LBR snapshot:
// two bytes per entry — a kind/flag byte and a function id. The
// decoder can express every pairing shape the machine produces
// (calls, returns, abort/interrupt boundaries, non-TSX entries) plus
// malformed ones it never does.
func decodeEntries(data []byte) []lbr.Entry {
	var out []lbr.Entry
	for i := 0; i+1 < len(data); i += 2 {
		k := data[i]
		fn := fmt.Sprintf("fn%d", data[i+1]%16)
		out = append(out, lbr.Entry{
			Kind:  lbr.Kind(k % 4),
			From:  lbr.IP{Fn: fn},
			To:    lbr.IP{Fn: fn, Site: "s"},
			Abort: k&4 != 0,
			InTSX: k&8 != 0,
		})
	}
	return out
}

// FuzzInTxPath hardens the §3.4 LBR pairing against arbitrary
// snapshots: reconstruction must never panic, must be deterministic,
// and every reconstructed frame must come from a call entry's target
// inside the current transaction's window.
func FuzzInTxPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x08, 1, 0x08, 2})          // two in-TSX calls
	f.Add([]byte{0x09, 1, 0x08, 2})          // in-TSX return above window
	f.Add([]byte{0x06, 0, 0x08, 1, 0x08, 2}) // abort boundary first
	f.Add([]byte{0x08, 1, 0x03, 0, 0x08, 2}) // interrupt splits the run
	f.Add([]byte{0x00, 1, 0x08, 2})          // non-TSX call stops the scan
	f.Add([]byte{0x08, 1, 0x09, 1, 0x08, 1}) // call-return-call
	f.Add([]byte{0x0b, 0, 0x08, 1, 0x09, 2}) // interrupt+in-TSX marker first

	f.Fuzz(func(t *testing.T, data []byte) {
		snap := decodeEntries(data)
		path, truncated := InTxPath(snap)
		path2, truncated2 := InTxPath(snap)
		if truncated != truncated2 || len(path) != len(path2) {
			t.Fatal("InTxPath is not deterministic")
		}
		for i := range path {
			if path[i] != path2[i] {
				t.Fatal("InTxPath is not deterministic")
			}
		}
		// Every open frame must be the target of some in-TSX call
		// entry of the snapshot, and there can be at most one open
		// frame per call entry.
		calls := make(map[lbr.IP]int)
		n := 0
		for _, e := range snap {
			if e.Kind == lbr.KindCall && e.InTSX {
				calls[e.To]++
				n++
			}
		}
		if len(path) > n {
			t.Fatalf("%d open frames from %d in-TSX calls", len(path), n)
		}
		used := make(map[lbr.IP]int)
		for _, ip := range path {
			used[ip]++
			if used[ip] > calls[ip] {
				t.Fatalf("frame %v appears %d times but was called %d times in-TSX", ip, used[ip], calls[ip])
			}
		}
	})
}

package profile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"txsampler/internal/record"
	"txsampler/internal/telemetry"
)

// body returns db's body encoding: the payload after its SHA-256.
func body(tb testing.TB, db *Database) []byte {
	tb.Helper()
	b, err := appendBody(nil, db)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// framed wraps a body the way encode does: the current magic line,
// then one frame holding the body's SHA-256 and the body.
func framed(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	sum := sha256.Sum256(raw)
	b, err := record.AppendFrame(record.Header(magic, FormatVersion), append(sum[:], raw...))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// filler sets every number, string and bool reachable from a value to
// a distinct non-zero value, giving each slice two elements and each
// pointer a target down to a nesting depth of 5: a tree of a root,
// two children and four grandchildren.
type filler struct {
	tb   testing.TB
	next uint64
	ints int // ints filled so far: every other one is negative
}

func (f *filler) fill(v reflect.Value, path string, depth int) {
	if !v.CanSet() {
		f.tb.Fatalf("%s: unexported field", path)
	}
	f.next++
	switch v.Kind() {
	case reflect.Uint64:
		// An odd multiplier keeps the values distinct and spreads
		// them over every varint length.
		v.SetUint(f.next * 0x9e3779b97f4a7c15)
	case reflect.Int:
		f.ints++
		if f.ints%2 == 1 {
			v.SetInt(-int64(f.next))
		} else {
			v.SetInt(int64(f.next) << 40)
		}
	case reflect.String:
		v.SetString("s" + strconv.FormatUint(f.next, 10))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), path+"["+strconv.Itoa(i)+"]", depth)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if v.Type() == reflect.TypeOf(telemetry.MetricValue{}) && name == "Volatile" {
				continue // never serialized: FromReport strips volatile entries
			}
			f.fill(v.Field(i), path+"."+name, depth)
		}
	case reflect.Slice:
		if depth < 5 {
			s := reflect.MakeSlice(v.Type(), 2, 2)
			for i := 0; i < 2; i++ {
				f.fill(s.Index(i), path+"["+strconv.Itoa(i)+"]", depth+1)
			}
			v.Set(s)
		}
	case reflect.Pointer:
		if depth < 5 {
			p := reflect.New(v.Type().Elem())
			f.fill(p.Elem(), path, depth+1)
			v.Set(p)
		}
	default:
		f.tb.Fatalf("%s: no filler for kind %s", path, v.Kind())
	}
}

// TestEveryFieldRoundTrips fills a database by reflection and requires
// the codec to keep every value: a field added to Database, Node,
// Thread, core.Metrics, core.DataQuality, faults.Stats or the
// telemetry types without a codec change fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	var db Database
	(&filler{tb: t}).fill(reflect.ValueOf(&db).Elem(), "Database", 0)
	db.Version = FormatVersion
	tids := db.PerThread
	if db.Root == nil || len(db.Root.Children[1].Children) != 2 || len(db.Telemetry[1].Buckets) != 2 ||
		(tids[0].TID < 0) == (tids[1].TID < 0) {
		t.Fatalf("filler left the database sparse: %+v", db)
	}
	raw := dbBytes(t, &db)
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &db) {
		t.Fatalf("round trip changed the database:\n got %+v\nwant %+v", got, &db)
	}
	if again := dbBytes(t, got); !bytes.Equal(again, raw) {
		t.Fatal("re-encoding the decoded database changed its bytes")
	}
}

// chain returns a body holding a calling-context tree of n nodes,
// node i with children(i) children, and nothing else.
func chain(tb testing.TB, n int, children func(i int) uint64) []byte {
	tb.Helper()
	b := body(tb, &Database{Version: FormatVersion})
	b = binary.AppendUvarint(b[:len(b)-1], uint64(n)) // replace the node count 0
	for i := 0; i < n; i++ {
		b = append(b, make([]byte, minNodeBytes-1)...) // fn "", site "", zero metrics
		b = binary.AppendUvarint(b, children(i))
	}
	return b
}

// hostile is a body Decode must refuse and the error text it must name.
type hostile struct {
	body []byte
	want string
}

// hostileBodies returns the bodies Decode must refuse behind a valid
// checksum, keyed by their FuzzRead seed names under
// testdata/fuzz/FuzzRead. deepChain, 370 KB, is no seed (see
// FuzzRead).
func hostileBodies(tb testing.TB) map[string]hostile {
	tb.Helper()
	// A partial database: every field after the partial byte is
	// zero, so that byte is the body's last 1.
	valid := body(tb, &Database{Version: FormatVersion, Partial: true})
	noTree := valid[:len(valid)-1]
	partial2 := bytes.Clone(valid)
	partial2[bytes.LastIndexByte(partial2, 1)] = 2
	badIndex := append(append(bytes.Clone(noTree), 1, 7), make([]byte, minNodeBytes-1)...)
	longVarint := append(bytes.Clone(noTree), bytes.Repeat([]byte{0x80}, 10)...)
	return map[string]hostile{
		"hostile-trailing-bytes":       {append(bytes.Clone(valid), 0), "1 trailing bytes"},
		"hostile-string-index":         {badIndex, "string index 7 out of range (1 strings)"},
		"hostile-varint-11-bytes":      {append(longVarint, 0), "varint overflows 64 bits"},
		"hostile-partial-byte-2":       {partial2, "boolean byte is not 0 or 1"},
		"hostile-children-claim-bytes": {chain(tb, 8, func(i int) uint64 { return uint64(7 - i) }), "6 children exceed the 0 unclaimed nodes"},
		"deepChain": {chain(tb, maxDepth+1, func(i int) uint64 { return uint64(min(1, maxDepth-i)) }),
			"calling-context tree deeper than 10000"},
	}
}

// TestDecodeRefusesHostileBodies feeds Decode the malformed bodies an
// uploader controls end to end (it computes the checksums), each
// refused as corruption.
func TestDecodeRefusesHostileBodies(t *testing.T) {
	for name, h := range hostileBodies(t) {
		t.Run(name, func(t *testing.T) {
			_, err := Decode(framed(t, h.body))
			if !errors.Is(err, record.ErrCorrupt) || !strings.Contains(err.Error(), h.want) {
				t.Fatalf("got %v, want record.ErrCorrupt naming %q", err, h.want)
			}
		})
	}
	// The depth bound is inclusive, and Write holds to it too.
	deepest := chain(t, maxDepth, func(i int) uint64 { return uint64(min(1, maxDepth-1-i)) })
	db, err := Decode(framed(t, deepest))
	if err != nil {
		t.Fatalf("tree %d deep refused: %v", maxDepth, err)
	}
	leaf := db.Root
	for leaf.Children != nil {
		leaf = leaf.Children[0]
	}
	leaf.Children = []*Node{{}}
	if err := db.Write(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "deeper than 10000") {
		t.Fatalf("Write of a tree %d deep: %v", maxDepth+1, err)
	}
}

// TestHostileSeedsCommitted holds the committed FuzzRead seeds to
// hostileBodies, so they keep the shapes their names promise across
// format changes.
func TestHostileSeedsCommitted(t *testing.T) {
	for name, h := range hostileBodies(t) {
		if name == "deepChain" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzRead", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\nstring(")
		got, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil || got != string(h.body) {
			t.Errorf("seed %s is not its hostileBodies entry: want\ngo test fuzz v1\nstring(%q)", name, h.body)
		}
	}
}

// TestDecodeAllocationBounded requires decoding to allocate at most a
// constant multiple of the payload on a chain whose every node claims
// all remaining bytes as children: a decoder that sizes each child
// list by its declared count allocates quadratically here.
func TestDecodeAllocationBounded(t *testing.T) {
	const n = 1 << 15
	data := framed(t, chain(t, n, func(i int) uint64 { return uint64(n - 1 - i) }))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, record.ErrCorrupt) {
		t.Fatalf("got %v, want record.ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}

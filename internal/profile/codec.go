package profile

// The payload body codec; storage.go's header comment gives the
// layout. Every field is written in a fixed order with no optional
// parts, and the string table follows first use, so equal databases
// encode to equal bytes.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"txsampler/internal/core"
	"txsampler/internal/record"
	"txsampler/internal/telemetry"
)

// maxDepth bounds the calling-context tree's nesting (the root is at
// depth 1), the bound version 4 inherited from encoding/json. Write
// and Decode both refuse deeper trees.
const maxDepth = 10000

// minNodeBytes is the smallest encoded node: fn, site, every metrics
// field and the child count, each a one-byte varint.
var minNodeBytes = func() int {
	var e encoder
	e.metrics(&core.Metrics{})
	return len(e.body) + 3
}()

// encoder builds a body: the string table apart, since it leads the
// body but grows as the fields after it are written.
type encoder struct {
	table []byte            // string table entries, in first-use order
	index map[string]uint64 // string -> table index
	body  []byte            // everything after the string table
	err   error
}

func (e *encoder) uvarint(v uint64) { e.body = binary.AppendUvarint(e.body, v) }
func (e *encoder) varint(v int)     { e.body = binary.AppendVarint(e.body, int64(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.body = append(e.body, 1)
	} else {
		e.body = append(e.body, 0)
	}
}

func (e *encoder) str(s string) {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.index))
		e.index[s] = i
		e.table = binary.AppendUvarint(e.table, uint64(len(s)))
		e.table = append(e.table, s...)
	}
	e.uvarint(i)
}

// appendBody appends db's body encoding to dst.
func appendBody(dst []byte, db *Database) ([]byte, error) {
	e := encoder{index: make(map[string]uint64)}
	e.varint(db.Version)
	e.str(db.Program)
	e.varint(db.Threads)
	for _, p := range db.Periods {
		e.uvarint(p)
	}
	e.bool(db.Partial)
	e.metrics(&db.Totals)
	e.quality(&db.Quality)
	e.uvarint(uint64(len(db.PerThread)))
	for _, t := range db.PerThread {
		e.varint(t.TID)
		e.uvarint(t.CommitSamples)
		e.uvarint(t.AbortSamples)
	}
	e.uvarint(uint64(len(db.Telemetry)))
	for _, mv := range db.Telemetry {
		e.str(mv.Name)
		e.str(mv.Kind)
		e.uvarint(mv.Value)
		e.uvarint(mv.Count)
		e.uvarint(mv.Sum)
		e.uvarint(uint64(len(mv.Buckets)))
		for _, b := range mv.Buckets {
			e.uvarint(b.Lo)
			e.uvarint(b.Hi)
			e.uvarint(b.Count)
		}
	}
	// The node count leads the tree but is known only once it is
	// written: splice it in below.
	tree := len(e.body)
	nodes := e.node(db.Root, 1)
	if e.err != nil {
		return nil, e.err
	}
	dst = slices.Grow(dst, len(e.table)+len(e.body)+2*binary.MaxVarintLen64)
	dst = binary.AppendUvarint(dst, uint64(len(e.index)))
	dst = append(dst, e.table...)
	dst = append(dst, e.body[:tree]...)
	dst = binary.AppendUvarint(dst, uint64(nodes))
	return append(dst, e.body[tree:]...), nil
}

// node writes the subtree at n in pre-order and returns its size.
func (e *encoder) node(n *Node, depth int) int {
	if n == nil || e.err != nil {
		return 0
	}
	if depth > maxDepth {
		e.err = fmt.Errorf("profile: calling-context tree deeper than %d", maxDepth)
		return 0
	}
	e.str(n.Fn)
	e.str(n.Site)
	e.metrics(&n.Metrics)
	e.uvarint(uint64(len(n.Children)))
	size := 1
	for _, c := range n.Children {
		size += e.node(c, depth+1)
	}
	return size
}

func (e *encoder) metrics(m *core.Metrics) {
	for _, v := range m.Time {
		e.uvarint(v)
	}
	e.uvarint(m.AbortSamples)
	for _, v := range m.AbortCount {
		e.uvarint(v)
	}
	for _, v := range m.AbortWeight {
		e.uvarint(v)
	}
	e.uvarint(m.CapReadW)
	e.uvarint(m.CapWriteW)
	e.uvarint(m.ConflictTx)
	e.uvarint(m.ConflictNonTx)
	e.uvarint(m.CommitSamples)
	e.uvarint(m.MemSamples)
	e.uvarint(m.TrueSharing)
	e.uvarint(m.FalseSharing)
	e.uvarint(m.Truncated)
}

func (e *encoder) quality(q *core.DataQuality) {
	s := &q.Injected
	e.uvarint(s.SpuriousAborts)
	e.uvarint(s.DroppedSamples)
	e.uvarint(s.CoalescedSamples)
	e.uvarint(s.TruncatedLBRs)
	e.uvarint(s.StaleLBRs)
	e.uvarint(s.ClearedAbortBits)
	e.uvarint(s.Stalls)
	e.uvarint(s.StallCycles)
	e.uvarint(s.ClockSkews)
	e.uvarint(s.StormOps)
	e.uvarint(s.PmemCrashes)
	e.uvarint(s.PmemRolledBack)
	e.uvarint(s.PmemTornTails)
	e.uvarint(q.MalformedSamples)
	e.uvarint(q.UnresolvedInTx)
	e.uvarint(q.InconsistentState)
	e.uvarint(q.TruncatedPaths)
}

// decoder reads a body. The first failure sticks and cuts the input
// at the cursor, so later reads return zeros and the caller checks err
// once. Every count is checked against the bytes left before anything
// is allocated for it, which bounds allocation by a constant multiple
// of the body's length: at most 16 bytes per body byte (a table of
// empty strings), about 9 for a tree of minimal nodes.
type decoder struct {
	b     []byte // the body
	off   int    // read cursor into b
	err   error
	strs  []string
	nodes []Node  // node slab: the tree's nodes, handed out in pre-order
	kids  []*Node // child-pointer slab, carved into Children slices
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("profile: %w: body byte %d: %s", record.ErrCorrupt, d.off, fmt.Sprintf(format, args...))
	}
	d.b = d.b[:d.off]
}

// left returns the number of unread bytes.
func (d *decoder) left() int { return len(d.b) - d.off }

// uvarint reads one-byte varints, most fields' small counts, without
// the general loop: a third of the decode time on real databases.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	return d.longUvarint()
}

func (d *decoder) longUvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	d.skip(n)
	return v
}

func (d *decoder) varint() int {
	v, n := binary.Varint(d.b[d.off:])
	d.skip(n)
	return int(v)
}

// skip consumes the n bytes a varint read reported, or fails on its
// error.
func (d *decoder) skip(n int) {
	switch {
	case n > 0:
		d.off += n
	case n == 0:
		d.fail("varint runs past the end")
	default:
		d.fail("varint overflows 64 bits")
	}
}

func (d *decoder) bool() bool {
	if d.left() == 0 || d.b[d.off] > 1 {
		d.fail("boolean byte is not 0 or 1")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

// count reads the length of a list whose items take at least size
// bytes each, refusing one the unread bytes cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(d.left()/size) {
		d.fail("count %d exceeds the %d bytes left", n, d.left())
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	i := d.uvarint()
	if i >= uint64(len(d.strs)) {
		d.fail("string index %d out of range (%d strings)", i, len(d.strs))
		return ""
	}
	return d.strs[i]
}

// decodeBody parses a body: the whole of it, or an error wrapping
// record.ErrCorrupt.
func decodeBody(body []byte) (*Database, error) {
	d := decoder{b: body}
	if n := d.count(1); n > 0 {
		d.strs = make([]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			l := d.uvarint()
			if l > uint64(d.left()) {
				d.fail("string length %d exceeds the %d bytes left", l, d.left())
				break
			}
			d.strs[i] = string(d.b[d.off : d.off+int(l)])
			d.off += int(l)
		}
	}
	db := &Database{Version: d.varint()}
	if d.err == nil && db.Version != FormatVersion {
		return nil, fmt.Errorf("profile: %w: payload version %d contradicts header version %d", record.ErrCorrupt, db.Version, FormatVersion)
	}
	db.Program = d.str()
	db.Threads = d.varint()
	for i := range db.Periods {
		db.Periods[i] = d.uvarint()
	}
	db.Partial = d.bool()
	d.metrics(&db.Totals)
	d.quality(&db.Quality)
	if n := d.count(3); n > 0 {
		db.PerThread = make([]Thread, n)
		for i := 0; i < n && d.err == nil; i++ {
			t := &db.PerThread[i]
			t.TID = d.varint()
			t.CommitSamples = d.uvarint()
			t.AbortSamples = d.uvarint()
		}
	}
	if n := d.count(6); n > 0 {
		db.Telemetry = make([]telemetry.MetricValue, n)
		for i := 0; i < n && d.err == nil; i++ {
			mv := &db.Telemetry[i]
			mv.Name = d.str()
			mv.Kind = d.str()
			mv.Value = d.uvarint()
			mv.Count = d.uvarint()
			mv.Sum = d.uvarint()
			if nb := d.count(3); nb > 0 {
				mv.Buckets = make([]telemetry.Bucket, nb)
				for j := 0; j < nb && d.err == nil; j++ {
					b := &mv.Buckets[j]
					b.Lo = d.uvarint()
					b.Hi = d.uvarint()
					b.Count = d.uvarint()
				}
			}
		}
	}
	if n := d.count(minNodeBytes); n > 0 {
		d.nodes = make([]Node, n)
		d.kids = make([]*Node, n-1)
		db.Root = d.node(1)
		if d.err == nil && len(d.kids) > 0 {
			d.fail("tree holds %d of the %d declared nodes", n-len(d.kids), n)
		}
	}
	if d.err == nil && d.left() > 0 {
		d.fail("%d trailing bytes", d.left())
	}
	if d.err != nil {
		return nil, d.err
	}
	return db, nil
}

// node reads the subtree at the cursor. Each child takes a slot of
// the kids slab before it takes a node, so the root and the slots
// never ask for more than the slab's n nodes.
func (d *decoder) node(depth int) *Node {
	if depth > maxDepth {
		d.fail("calling-context tree deeper than %d", maxDepth)
		return nil
	}
	n := &d.nodes[0]
	d.nodes = d.nodes[1:]
	n.Fn = d.str()
	n.Site = d.str()
	d.metrics(&n.Metrics)
	k := d.uvarint()
	if k > uint64(len(d.kids)) {
		d.fail("%d children exceed the %d unclaimed nodes", k, len(d.kids))
		return nil
	}
	if k == 0 {
		return n
	}
	// Capped, so a later append (Merge) reallocates rather than
	// overwriting the next node's children.
	n.Children = d.kids[:k:k]
	d.kids = d.kids[k:]
	for i := range n.Children {
		if n.Children[i] = d.node(depth + 1); d.err != nil {
			return nil
		}
	}
	return n
}

func (d *decoder) metrics(m *core.Metrics) {
	for i := range m.Time {
		m.Time[i] = d.uvarint()
	}
	m.AbortSamples = d.uvarint()
	for i := range m.AbortCount {
		m.AbortCount[i] = d.uvarint()
	}
	for i := range m.AbortWeight {
		m.AbortWeight[i] = d.uvarint()
	}
	m.CapReadW = d.uvarint()
	m.CapWriteW = d.uvarint()
	m.ConflictTx = d.uvarint()
	m.ConflictNonTx = d.uvarint()
	m.CommitSamples = d.uvarint()
	m.MemSamples = d.uvarint()
	m.TrueSharing = d.uvarint()
	m.FalseSharing = d.uvarint()
	m.Truncated = d.uvarint()
}

func (d *decoder) quality(q *core.DataQuality) {
	s := &q.Injected
	s.SpuriousAborts = d.uvarint()
	s.DroppedSamples = d.uvarint()
	s.CoalescedSamples = d.uvarint()
	s.TruncatedLBRs = d.uvarint()
	s.StaleLBRs = d.uvarint()
	s.ClearedAbortBits = d.uvarint()
	s.Stalls = d.uvarint()
	s.StallCycles = d.uvarint()
	s.ClockSkews = d.uvarint()
	s.StormOps = d.uvarint()
	s.PmemCrashes = d.uvarint()
	s.PmemRolledBack = d.uvarint()
	s.PmemTornTails = d.uvarint()
	q.MalformedSamples = d.uvarint()
	q.UnresolvedInTx = d.uvarint()
	q.InconsistentState = d.uvarint()
	q.TruncatedPaths = d.uvarint()
}

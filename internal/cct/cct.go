// Package cct provides the calling context tree the profiler
// attributes metrics to, and the paper's Figure 3 algorithm for
// reconstructing the call-path suffix that executed inside a hardware
// transaction from an LBR snapshot.
//
// A context is a path of frames from the thread root; each node holds
// caller-supplied metric data. The tree is generic over the metric
// type so the profiler and the analyzer can use their own structures.
package cct

import (
	"sort"

	"txsampler/internal/lbr"
)

// Node is one calling context. Data is the per-context metric payload.
type Node[M any] struct {
	Frame    lbr.IP
	Parent   *Node[M]
	children map[lbr.IP]*Node[M]
	Data     M
}

// Tree is a calling context tree rooted at a synthetic node.
type Tree[M any] struct {
	Root *Node[M]
}

// NewTree returns an empty tree with a "<root>" node.
func NewTree[M any]() *Tree[M] {
	return &Tree[M]{Root: &Node[M]{Frame: lbr.IP{Fn: "<root>"}}}
}

// Child returns the child of n for frame f, creating it if needed.
func (n *Node[M]) Child(f lbr.IP) *Node[M] {
	if n.children == nil {
		n.children = make(map[lbr.IP]*Node[M])
	}
	c := n.children[f]
	if c == nil {
		c = &Node[M]{Frame: f, Parent: n}
		n.children[f] = c
	}
	return c
}

// Lookup returns the child for frame f, or nil.
func (n *Node[M]) Lookup(f lbr.IP) *Node[M] {
	return n.children[f]
}

// Children returns the node's children sorted by frame for stable
// iteration.
func (n *Node[M]) Children() []*Node[M] {
	out := make([]*Node[M], 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Frame, out[j].Frame
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		return a.Site < b.Site
	})
	return out
}

// Path walks (creating as needed) the context for the given frames and
// returns its node.
func (t *Tree[M]) Path(frames []lbr.IP) *Node[M] {
	n := t.Root
	for _, f := range frames {
		n = n.Child(f)
	}
	return n
}

// Frames returns the path from the root (exclusive) to n.
func (n *Node[M]) Frames() []lbr.IP {
	var rev []lbr.IP
	for c := n; c.Parent != nil; c = c.Parent {
		rev = append(rev, c.Frame)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Walk visits every node in depth-first preorder with its depth
// (root = 0), in deterministic child order.
func (t *Tree[M]) Walk(visit func(n *Node[M], depth int)) {
	var rec func(n *Node[M], d int)
	rec = func(n *Node[M], d int) {
		visit(n, d)
		for _, c := range n.Children() {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Merge folds src into t, combining metric payloads of matching
// contexts with combine(dst, src). It implements the analyzer's
// cross-thread profile coalescing (paper §6).
func (t *Tree[M]) Merge(src *Tree[M], combine func(dst *M, src *M)) {
	var rec func(dst, s *Node[M])
	rec = func(dst, s *Node[M]) {
		combine(&dst.Data, &s.Data)
		for _, sc := range s.Children() {
			rec(dst.Child(sc.Frame), sc)
		}
	}
	rec(t.Root, src.Root)
}

// Size returns the number of nodes, root included.
func (t *Tree[M]) Size() int {
	n := 0
	t.Walk(func(*Node[M], int) { n++ })
	return n
}

// InTxPath reconstructs the call-path suffix executed inside the
// current transaction from an LBR snapshot (most recent first, as
// returned by lbr.Buffer.Snapshot). It implements the paper's §3.4
// pairing: the in-transaction call and return entries are replayed
// oldest-to-newest to rebuild the frames still open at the sample
// point. The scan stops at the previous transaction's abort branch or
// interrupt marker, so stale in-TSX entries from earlier transactions
// are not mixed in.
//
// truncated reports that the LBR window did not reach back to the
// transaction start (an unmatched return was seen, or the buffer was
// full of in-TSX entries), so path is only a suffix of the true
// in-transaction context — the concatenation may miss a prefix
// (paper §3.4, last sentence).
func InTxPath(snapshot []lbr.Entry) (path []lbr.IP, truncated bool) {
	// Collect the contiguous run of in-TSX call/return entries that
	// belong to the current transaction, skipping the triggering
	// entry (abort or interrupt) at index 0 if present.
	start := 0
	if len(snapshot) > 0 && (snapshot[0].Kind == lbr.KindAbort || snapshot[0].Kind == lbr.KindInterrupt) {
		start = 1
	}
	var run []lbr.Entry // most recent first
	for i := start; i < len(snapshot); i++ {
		e := snapshot[i]
		if e.Kind == lbr.KindAbort || e.Kind == lbr.KindInterrupt {
			break // boundary of an earlier transaction or sample
		}
		if !e.InTSX {
			break // left the current transaction's window
		}
		run = append(run, e)
	}
	if len(run) == 0 {
		return nil, len(snapshot) == 0
	}
	// The run may occupy the whole buffer, in which case older in-TSX
	// entries may have been overwritten.
	if start+len(run) == len(snapshot) {
		truncated = true
	}
	// Replay oldest -> newest.
	var stack []lbr.IP
	for i := len(run) - 1; i >= 0; i-- {
		e := run[i]
		switch e.Kind {
		case lbr.KindCall:
			stack = append(stack, e.To)
		case lbr.KindReturn:
			if len(stack) == 0 {
				// Return above the visible window: its call scrolled
				// out of the LBR.
				truncated = true
			} else {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return stack, truncated
}

package cct_test

import (
	"fmt"

	"txsampler/internal/cct"
	"txsampler/internal/lbr"
)

// ExampleInTxPath reproduces the paper's Figure 3: a sample lands in D
// inside a transaction after the call history A→B→D, returns, A→C→D.
// Stack unwinding only reaches the transaction begin (main→A); the LBR
// pairing recovers C→D, so the concatenated context disambiguates D's
// caller.
func ExampleInTxPath() {
	snapshot := []lbr.Entry{
		{Kind: lbr.KindAbort, Abort: true, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "C"}, To: lbr.IP{Fn: "D"}, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "A"}, To: lbr.IP{Fn: "C"}, InTSX: true},
		{Kind: lbr.KindReturn, From: lbr.IP{Fn: "B"}, To: lbr.IP{Fn: "A"}, InTSX: true},
		{Kind: lbr.KindReturn, From: lbr.IP{Fn: "D"}, To: lbr.IP{Fn: "B"}, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "B"}, To: lbr.IP{Fn: "D"}, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "A"}, To: lbr.IP{Fn: "B"}, InTSX: true},
		{Kind: lbr.KindCall, From: lbr.IP{Fn: "main"}, To: lbr.IP{Fn: "A"}},
	}
	suffix, truncated := cct.InTxPath(snapshot)
	unwound := []lbr.IP{{Fn: "main"}, {Fn: "A"}}
	full := append(unwound, suffix...)
	for i, f := range full {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(f.Fn)
	}
	fmt.Println("\ntruncated:", truncated)
	// Output:
	// main -> A -> C -> D
	// truncated: false
}

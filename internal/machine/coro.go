//go:build go1.23

// This file alone imports iter, whose Pull arrived in go1.23. The build
// line raises the language version of this file only, so go.mod keeps
// its go 1.22 line: bench/go.mod requires this module and would have to
// move to go 1.23 in the same change.

package machine

import "iter"

// start makes body t's coroutine. The driver calls resume while t holds
// the baton (see Machine.drive); t calls suspend to hand it on (see
// Thread.yield) and finishes when the body returns or panics; stop
// unwinds t once the machine has stopped (see Thread.park).
func (t *Thread) start(body func(*Thread)) {
	t.resume, t.stop = iter.Pull(func(suspend func(struct{}) bool) {
		t.suspend = suspend
		defer func() { t.finish(recover()) }()
		body(t)
	})
}

package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"txsampler/internal/htm"
)

// scanPair is the brute-force reference: the two smallest pending
// positions (lastPub, ID) among live, whatever its order.
func scanPair(live []*Thread) (first, second *Thread) {
	for _, c := range live {
		switch {
		case first == nil || c.lastPub < first.lastPub || (c.lastPub == first.lastPub && c.ID < first.ID):
			first, second = c, first
		case second == nil || c.lastPub < second.lastPub || (c.lastPub == second.lastPub && c.ID < second.ID):
			second = c
		}
	}
	return first, second
}

// TestLiveOrderMatchesScan holds the ordered live set to a brute-force
// scan over random schedules. Each step, the holder runs a few
// operations — its position grows by small steps or by a fast-forward
// jump, and while it is below its horizon it writes, waking a sleeper
// whose position shrinks but stays behind its own — and then yields or
// finishes. Start positions and small steps collide often, so several
// threads share a position and the ID breaks the tie. After every
// handoff pickNext's pair must be the scan's, and after every wake the
// holder's horizon entry must be the smallest of the others.
func TestLiveOrderMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 14, htm.MaxThreads} {
		var wakes int
		for seed := int64(1); seed <= 40; seed++ {
			wakes += driveLiveOrder(t, n, seed)
		}
		if n > 1 && wakes == 0 {
			t.Fatalf("%d threads: no sleeper was woken; the wake path is untested", n)
		}
	}
}

// driveLiveOrder runs one random schedule of n threads and returns the
// number of wakes it made.
func driveLiveOrder(t *testing.T, n int, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := New(Config{Threads: n})
	s := m.sched
	for _, th := range m.threads {
		th.lastPub = uint64(rng.Intn(3))
	}
	s.live = append([]*Thread(nil), m.threads...)
	sort.Slice(s.live, func(i, j int) bool { return precedes(s.live[i], s.live[j]) })

	var handoffs, wakes int
	check := func(what string) {
		t.Helper()
		first, second, err := m.pickNext()
		wantFirst, wantSecond := scanPair(s.live)
		if err != nil || first != wantFirst || second != wantSecond {
			t.Fatalf("%d threads, seed %d, after %d handoffs and %d wakes (%s): pickNext = %v, %v, %v; scan = %v, %v",
				n, seed, handoffs, wakes, what, pos(first), pos(second), err, pos(wantFirst), pos(wantSecond))
		}
	}
	check("start")
	for len(s.live) > 0 {
		h := s.live[0]
		for ops := rng.Intn(5); ops > 0; ops-- {
			switch r := rng.Intn(8); {
			case r < 4: // an operation; a zero step keeps a tie
				h.lastPub += uint64(rng.Intn(3))
			case r == 4: // a spin-wait sleep
				h.lastPub += 1000 + uint64(rng.Intn(1<<20))
			case len(s.live) > 1 && precedes(h, s.live[1]): // a write behind a passed gate
				sp := s.live[1+rng.Intn(len(s.live)-1)]
				p := h.lastPub + uint64(rng.Int63n(int64(sp.lastPub-h.lastPub)+1))
				if p == h.lastPub && sp.ID < h.ID {
					p++ // a load tied with the write at a smaller ID precedes it
				}
				if p > sp.lastPub {
					continue
				}
				sp.lastPub = p
				s.raise(sp)
				wakes++
				if got, want := s.live[1], scanFirst(s.live[1:]); got != want {
					t.Fatalf("%d threads, seed %d, wake %d: horizon entry %v, smallest other %v",
						n, seed, wakes, pos(got), pos(want))
				}
			}
		}
		if rng.Intn(12) == 0 {
			s.live = s.live[1:] // finish drops the holder
			check("finish")
			continue
		}
		s.sink()
		handoffs++
		check("yield")
	}
	return wakes
}

// scanFirst is the smallest pending position in live.
func scanFirst(live []*Thread) *Thread {
	first, _ := scanPair(live)
	return first
}

// pos formats a thread's pending position for failure messages.
func pos(t *Thread) string {
	if t == nil {
		return "<nil>"
	}
	return fmt.Sprintf("(%d, %d)", t.lastPub, t.ID)
}

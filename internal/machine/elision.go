package machine

import "fmt"

// ElisionMode selects whether lock-shaped critical sections
// (rtm.ElidedLock) speculate through the TM runtime instead of
// acquiring their lock. The zero value is ElisionOff: elidable locks
// behave as plain locks and profiles are bit-for-bit the pre-elision
// machine's. ElisionOn runs each critical section as TM_BEGIN/TM_END
// with the full fallback ladder (HTM retry, then the configured hybrid
// slow path, then actually acquiring the lock).
type ElisionMode int

const (
	// ElisionOff: elidable locks acquire their lock word directly; no
	// speculation. The default.
	ElisionOff ElisionMode = iota
	// ElisionOn: elidable locks run their critical sections through
	// the TM fallback ladder and only acquire the lock when both the
	// hardware and (policy permitting) software paths fail.
	ElisionOn

	numElisionModes
)

var elisionNames = [...]string{
	ElisionOff: "off",
	ElisionOn:  "on",
}

// String returns the flag spelling of the mode.
func (e ElisionMode) String() string {
	if e < 0 || int(e) >= len(elisionNames) {
		return fmt.Sprintf("ElisionMode(%d)", int(e))
	}
	return elisionNames[e]
}

// Valid reports whether e is a defined mode.
func (e ElisionMode) Valid() bool { return e >= 0 && e < numElisionModes }

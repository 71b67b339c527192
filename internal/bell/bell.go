// Package bell is the one blocking primitive of the request path: a
// single-waiter doorbell a loop parks on when it runs dry, rung by whoever
// makes its wake condition true. It replaces poll-and-yield at every
// hand-off (the rpc receive ring, the CR-MR ring, call completion) without
// taxing the busy case: ringing a bell nobody is armed on is one atomic
// load, and a loop that always finds work never touches its bell at all.
//
// Protocol (DESIGN.md "Hand-offs"). The waiter:
//
//	b.Arm()
//	if workAvailable() {   // re-check AFTER arming
//		b.Disarm()
//		... do the work ...
//	} else {
//		b.Sleep()
//	}
//
// The producer publishes first, then rings:
//
//	publish()
//	b.Ring()
//
// Arm and Ring are sequentially consistent atomics on the same word the
// other side reads after its own write, so one of the two always sees the
// other: either the waiter's re-check observes the publication, or the
// producer's Ring observes the armed bell and wakes it. A wake-up cannot be
// lost, which is what lets a parked loop wait with no timeout.
//
// Exactly one goroutine may wait on a bell; any number may ring it. Every
// Arm must be followed by exactly one Sleep or Disarm. Sleep may return
// without the condition holding (a ring meant for an earlier publication,
// or for a different condition sharing the bell), so waiters loop.
package bell

import "sync/atomic"

// Bell is a single-waiter doorbell. Create with New; a Bell must not be
// copied after first use.
type Bell struct {
	armed atomic.Uint32
	// ch carries at most one wake token per Arm: only the ringer that wins
	// the armed 1→0 swap sends, and the waiter always consumes it (Sleep, or
	// Disarm after losing that swap), so a send never blocks and no token
	// outlives its Arm. Parking on it allocates nothing.
	ch chan struct{}
	_  [48]byte // keep neighbouring bells off each other's cache line
}

// New returns a ready bell.
func New() *Bell { return &Bell{ch: make(chan struct{}, 1)} }

// Arm announces that the waiter is about to sleep. The waiter must re-check
// its condition after Arm and then call Sleep or Disarm.
func (b *Bell) Arm() { b.armed.Store(1) }

// Disarm cancels an Arm whose re-check found work. If a ringer already
// claimed the bell, its token is in flight: consume it so it cannot wake a
// later Sleep.
func (b *Bell) Disarm() {
	if !b.armed.CompareAndSwap(1, 0) {
		<-b.ch
	}
}

// Sleep parks the waiter until the bell is rung.
func (b *Bell) Sleep() { <-b.ch }

// Ring wakes the waiter if it is armed; otherwise it is one atomic load.
// Call it after publishing whatever the waiter re-checks.
func (b *Bell) Ring() {
	if b.armed.Load() != 0 {
		b.wake()
	}
}

func (b *Bell) wake() {
	if b.armed.CompareAndSwap(1, 0) {
		b.ch <- struct{}{}
	}
}

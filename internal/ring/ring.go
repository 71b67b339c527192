// Package ring implements the CR-MR queue (§3.4): the communication fabric
// between the cache-resident and memory-resident layers. It is an
// all-to-all matrix of single-producer single-consumer lock-free rings —
// one dedicated ring per (CR thread, MR thread) pair — whose slots each
// carry a small batch of compact 16-byte requests to amortize push/pop
// costs. Completion is piggybacked: the consumer advances its done pointer
// only after fully processing a slot (responses already written), so the
// producer learns about completed batches without any explicit message.
package ring

import "sync/atomic"

// MaxBatch is the largest number of requests one slot can carry.
const MaxBatch = 32

// Request is the compact 16-byte inter-layer request representation
// (paper Figure 6). Keys longer than 8 bytes are hashed into Key by the
// RPC layer before reaching this queue.
type Request struct {
	Key  uint64 // the key (or its 8-byte hash)
	Type uint8  // operation type (matches workload.OpType values)
	Size uint16 // value size or scan count
	Buf  uint32 // network-buffer slot index (receive slot for put, response slot for get)
}

type slot struct {
	seq  atomic.Uint64
	n    int32
	_    [3]int32 // keep reqs 16-byte aligned and pad the header
	reqs [MaxBatch]Request
}

type pad64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// SPSC is a bounded single-producer single-consumer ring of request
// batches with Vyukov-style per-slot sequence numbers, plus a consumer
// "done" cursor for piggybacked completion.
type SPSC struct {
	mask  uint64
	slots []slot

	// Producer-private cursor (accessed only by the producer).
	head uint64
	// Consumer-private cursor (accessed only by the consumer).
	tail uint64

	// done counts slots fully processed (committed) by the consumer; the
	// producer polls it to learn about completions.
	done pad64
	// pushed counts slots published by the producer (for symmetry/stats).
	pushed pad64
}

// NewSPSC creates a ring with the given capacity in slots (rounded up to a
// power of two, minimum 2).
func NewSPSC(capacity int) *SPSC {
	c := 2
	for c < capacity {
		c <<= 1
	}
	q := &SPSC{mask: uint64(c - 1), slots: make([]slot, c)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the ring capacity in slots.
func (q *SPSC) Cap() int { return len(q.slots) }

// Push publishes a batch of up to MaxBatch requests as one slot. It
// returns false when the ring is full (the producer should retry after
// draining completions). Must be called from a single producer goroutine.
func (q *SPSC) Push(reqs []Request) bool {
	if len(reqs) == 0 || len(reqs) > MaxBatch {
		panic("ring: batch size out of range")
	}
	s := &q.slots[q.head&q.mask]
	if s.seq.Load() != q.head {
		return false // slot not yet freed by consumer
	}
	n := copy(s.reqs[:], reqs)
	s.n = int32(n)
	s.seq.Store(q.head + 1)
	q.head++
	q.pushed.v.Add(1)
	return true
}

// Peek returns the oldest unprocessed batch without freeing its slot, or
// nil when the ring is empty. The returned slice aliases ring storage and
// is valid until the matching Commit. Must be called from a single
// consumer goroutine.
func (q *SPSC) Peek() []Request {
	s := &q.slots[q.tail&q.mask]
	if s.seq.Load() != q.tail+1 {
		return nil
	}
	return s.reqs[:s.n]
}

// Commit frees the slot returned by the last Peek and advances the done
// cursor — the paper's piggybacked completion signal. Calling Commit
// without a successful Peek corrupts the ring; the consumer loop owns this
// discipline.
func (q *SPSC) Commit() {
	s := &q.slots[q.tail&q.mask]
	s.seq.Store(q.tail + q.mask + 1)
	q.tail++
	q.done.v.Add(1)
}

// Done returns the number of batches fully processed by the consumer. The
// producer compares it against its own count of pushed batches to complete
// the corresponding response contexts in FIFO order.
func (q *SPSC) Done() uint64 { return q.done.v.Load() }

// Pushed returns the number of batches published.
func (q *SPSC) Pushed() uint64 { return q.pushed.v.Load() }

// Empty reports whether the consumer has drained everything currently
// published (used by the thread-reassignment protocol, which must wait for
// residual requests before a worker switches roles).
func (q *SPSC) Empty() bool { return q.Done() == q.Pushed() }

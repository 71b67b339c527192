package ring

import (
	"runtime"
	"sync/atomic"

	"mutps/internal/bell"
)

// CRMR is the all-to-all CR-MR queue: rings[c][m] is the dedicated SPSC
// ring from CR worker c to MR worker m. CR workers spread batches across MR
// workers round-robin to balance load; each MR worker scans its column of
// rings to pop new batches.
//
// The matrix is sized for the maximum worker counts the store may ever use,
// so thread reassignment (which changes how many workers are *active* at
// each layer) never reallocates rings — idle rings simply stay empty.
type CRMR struct {
	rings [][]*SPSC

	// bells[m] is MR column m's doorbell: a producer rings it after every
	// batch it pushes into the column, so the column's consumer may park on
	// it when every ring it scans is empty (DESIGN.md "Hand-offs").
	bells []*bell.Bell
}

// NewCRMR builds a maxCR × maxMR matrix of rings with the given per-ring
// slot capacity.
func NewCRMR(maxCR, maxMR, capacity int) *CRMR {
	if maxCR <= 0 || maxMR <= 0 {
		panic("ring: CRMR dimensions must be positive")
	}
	q := &CRMR{rings: make([][]*SPSC, maxCR), bells: make([]*bell.Bell, maxMR)}
	for c := range q.rings {
		q.rings[c] = make([]*SPSC, maxMR)
		for m := range q.rings[c] {
			q.rings[c][m] = NewSPSC(capacity)
		}
	}
	for m := range q.bells {
		q.bells[m] = bell.New()
	}
	return q
}

// Bell returns MR column m's doorbell.
func (q *CRMR) Bell(m int) *bell.Bell { return q.bells[m] }

// SetBell makes b column m's doorbell. A consumer that also waits on
// another source (the store's workers wait on their rpc slots too) shares
// one bell between both, so a single Sleep covers either. Call it before
// the first push to the column.
func (q *CRMR) SetBell(m int, b *bell.Bell) { q.bells[m] = b }

// MaxCR returns the producer-side dimension.
func (q *CRMR) MaxCR() int { return len(q.rings) }

// MaxMR returns the consumer-side dimension.
func (q *CRMR) MaxMR() int { return len(q.rings[0]) }

// Ring returns the dedicated ring from CR worker c to MR worker m.
func (q *CRMR) Ring(c, m int) *SPSC { return q.rings[c][m] }

// Producer is CR worker c's sending handle: it batches requests locally
// and pushes full batches to the active MR workers round-robin.
type Producer struct {
	q     *CRMR
	cr    int
	next  int // round-robin cursor over MR workers
	batch []Request
	limit int

	// stalls counts failed Push attempts (target ring full, §3.4's
	// backpressure signal). Written only by the producer, read by the
	// observability scraper, hence atomic.
	stalls atomic.Uint64
}

// Producer creates the handle for CR worker c with the given batch size
// (requests accumulated before a push; clamped to [1, MaxBatch]).
func (q *CRMR) Producer(c, batchSize int) *Producer {
	if batchSize < 1 {
		batchSize = 1
	}
	if batchSize > MaxBatch {
		batchSize = MaxBatch
	}
	return &Producer{q: q, cr: c, batch: make([]Request, 0, batchSize), limit: batchSize}
}

// Add queues one request locally; when the local batch reaches the batch
// size it is flushed. It returns the MR worker index the batch went to and
// true when a flush happened (so the caller can record the in-flight batch
// for completion matching), or -1 and false otherwise. The active MR
// workers are the contiguous columns [mrBase, mrBase+nMR).
func (p *Producer) Add(req Request, mrBase, nMR int) (mr int, flushed bool) {
	p.batch = append(p.batch, req)
	if len(p.batch) < p.limit {
		return -1, false
	}
	return p.Flush(mrBase, nMR)
}

// Flush pushes any locally queued requests as one batch, spinning while
// the target ring is full, and rings the target column's bell. It returns
// (-1, false) when nothing was queued.
func (p *Producer) Flush(mrBase, nMR int) (mr int, flushed bool) {
	if len(p.batch) == 0 {
		return -1, false
	}
	if nMR <= 0 || mrBase < 0 || mrBase+nMR > p.q.MaxMR() {
		panic("ring: active MR range out of bounds")
	}
	m := mrBase + p.next%nMR
	p.next++
	r := p.q.rings[p.cr][m]
	for !r.Push(p.batch) {
		// Ring full: the MR worker is behind. On pinned dedicated cores
		// this would be a pure spin; under the Go scheduler we must yield
		// so the consumer goroutine can run.
		p.stalls.Add(1)
		runtime.Gosched()
	}
	p.batch = p.batch[:0]
	p.q.bells[m].Ring()
	return m, true
}

// PendingLocal returns how many requests are queued locally (not yet
// pushed).
func (p *Producer) PendingLocal() int { return len(p.batch) }

// DropLocal discards the locally queued requests without pushing them,
// keeping the batch slice's capacity. The shutdown path uses it after
// failing the dropped requests' calls directly; Flush is wrong there
// because the consumer side may already be gone.
func (p *Producer) DropLocal() { p.batch = p.batch[:0] }

// Stalls returns how many Push attempts found the target ring full.
func (p *Producer) Stalls() uint64 { return p.stalls.Load() }

// Consumer is MR worker m's receiving handle: it scans the rings of all
// active CR workers for new batches.
type Consumer struct {
	q    *CRMR
	mr   int
	next int // scan cursor over CR workers for fairness

	// emptyPolls counts Polls that found every scanned ring empty — the
	// pop-side stall signal. Single writer (the consumer), atomic for the
	// scraper.
	emptyPolls atomic.Uint64
}

// Consumer creates the handle for MR worker m.
func (q *CRMR) Consumer(m int) *Consumer {
	return &Consumer{q: q, mr: m}
}

// Poll performs a one-shot scan over the active CR workers' rings (rows
// [0, nCR)) and returns the first available batch along with the CR worker
// it came from and the ring to Commit on. It returns cr = -1 when no ring
// has work — the non-blocking discipline of the FSM execution model.
func (c *Consumer) Poll(nCR int) (cr int, reqs []Request, r *SPSC) {
	if nCR <= 0 || nCR > c.q.MaxCR() {
		panic("ring: active CR count out of range")
	}
	for i := 0; i < nCR; i++ {
		idx := (c.next + i) % nCR
		ring := c.q.rings[idx][c.mr]
		if batch := ring.Peek(); batch != nil {
			c.next = (idx + 1) % nCR
			return idx, batch, ring
		}
	}
	c.emptyPolls.Add(1)
	return -1, nil, nil
}

// EmptyPolls returns how many Polls came back empty-handed.
func (c *Consumer) EmptyPolls() uint64 { return c.emptyPolls.Load() }

// ColumnEmpty reports whether every ring feeding MR worker m is drained —
// used during thread reassignment to ensure no residual requests.
func (q *CRMR) ColumnEmpty(m int) bool {
	for c := range q.rings {
		if !q.rings[c][m].Empty() {
			return false
		}
	}
	return true
}

// Occupancy returns the total batches currently published but not yet
// committed across the whole matrix — the queue's instantaneous depth in
// slots, read at scrape time.
func (q *CRMR) Occupancy() uint64 {
	var occ uint64
	for c := range q.rings {
		for m := range q.rings[c] {
			r := q.rings[c][m]
			// Done first: reading Pushed afterwards guarantees the later
			// value is ≥ the earlier one even against concurrent commits,
			// so the difference never underflows.
			done := r.Done()
			occ += r.Pushed() - done
		}
	}
	return occ
}

//go:build linux

// The parking lot: where a server on a TCP listener keeps a connection
// that is not sending. A parked connection is its descriptor, armed in the
// lot's one epoll set, and its srvConn — no goroutine, no pipeline, no
// buffer. One goroutine waits on the set; all it does with a readable
// connection is take it out of the lot and start the pipeline that would
// otherwise have waited in a read (transport.activate). Peer hang-ups take the
// same road: the pipeline reads the EOF and drops the connection.
//
// Arming is level-triggered and one-shot (EPOLLIN|EPOLLRDHUP|EPOLLONESHOT).
// One-shot, so an active connection — whose descriptor stays in the set,
// disabled — raises nothing while its pipeline does the reading.
// Level-triggered, so re-arming cannot lose bytes: a pipeline parks only
// after a read returned nothing, and EPOLL_CTL_MOD reports a descriptor
// that is readable at that moment, so whatever arrived between that read
// and the re-arm fires at once.
//
// The descriptor is only ever touched inside RawConn.Control, which fails
// on a closed connection and holds off a concurrent Close: the lot never
// arms a recycled descriptor number.
package netserver

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"time"
)

// epollSupported reports whether this build carries the parking lot.
const epollSupported = true

// parkState is what the lot keeps in a srvConn.
type parkState struct {
	raw   syscall.RawConn
	fd    int32     // key in parked while the connection is in the lot
	added bool      // already in the epoll set: re-arm with MOD
	since time.Time // when it was parked, for the IdleTimeout reaper
}

type parkingLot struct {
	t    *transport
	epfd int
	// ep is epfd as a file the runtime's poller watches — an epoll set is
	// itself pollable — so run sleeps like a goroutine in a network read,
	// holding no thread, and closing ep is what ends it.
	ep   *os.File
	done chan struct{} // closed when run returns

	mu      sync.Mutex
	parked  map[int32]*srvConn
	stopped bool
}

// newParkingLot opens the lot, or returns nil if the set cannot be created
// or the poller will not take it.
func newParkingLot(t *transport) *parkingLot {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	// Non-blocking is what makes os.NewFile hand the set to the poller.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil
	}
	ep := os.NewFile(uintptr(epfd), "parking-lot")
	if err := ep.SetReadDeadline(time.Time{}); err != nil { // the poller refused it
		ep.Close()
		return nil
	}
	l := &parkingLot{t: t, epfd: epfd, ep: ep, done: make(chan struct{}), parked: map[int32]*srvConn{}}
	go l.run()
	return l
}

// park puts c in the lot and arms its descriptor. It reports false when
// the lot has stopped or the connection is already closed; c is then still
// the caller's to drop.
func (l *parkingLot) park(c *srvConn) bool {
	ps := &c.park
	if ps.raw == nil {
		sc, ok := c.Conn.(syscall.Conn)
		if !ok {
			return false
		}
		raw, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		ps.raw = raw
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return false
	}
	var cerr error
	err := ps.raw.Control(func(fd uintptr) {
		op := syscall.EPOLL_CTL_MOD
		if !ps.added {
			op = syscall.EPOLL_CTL_ADD
		}
		ps.fd, ps.added, ps.since = int32(fd), true, time.Now()
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT, Fd: ps.fd}
		// In the map before it is armed: the event may fire before EpollCtl
		// returns, and run looks the connection up under l.mu, held here.
		l.parked[ps.fd] = c
		if cerr = syscall.EpollCtl(l.epfd, op, int(fd), &ev); cerr != nil {
			delete(l.parked, ps.fd)
		}
	})
	if err != nil || cerr != nil {
		return false
	}
	l.t.s.parkedConns.Add(1)
	return true
}

// run is the lot's goroutine: activate what became readable, reap what
// has been parked past IdleTimeout. With no timeout configured it sleeps
// until a parked connection stirs — an idle server burns nothing here.
func (l *parkingLot) run() {
	defer close(l.done)
	s := l.t.s
	idle := s.cfg.IdleTimeout
	sweepEvery := min(max(idle/4, 10*time.Millisecond), time.Second)
	raw, err := l.ep.SyscallConn()
	if err != nil {
		return
	}
	events := make([]syscall.EpollEvent, 128)
	var wake, reap []*srvConn // taken out of the lot this round
	var lastSweep time.Time
	for {
		if idle > 0 {
			l.ep.SetReadDeadline(time.Now().Add(sweepEvery))
		}
		n := 0
		// The poller reports the set edge-triggered: collect until it is
		// empty, and only then (false) sleep until it is not.
		err := raw.Read(func(fd uintptr) bool {
			n, _ = syscall.EpollWait(int(fd), events, 0)
			return n > 0
		})
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return // stop closed the set
		}
		l.mu.Lock()
		wake, reap = wake[:0], reap[:0]
		for i := 0; i < n; i++ {
			if c := l.parked[events[i].Fd]; c != nil {
				delete(l.parked, events[i].Fd)
				wake = append(wake, c)
			}
		}
		if now := time.Now(); idle > 0 && now.Sub(lastSweep) >= sweepEvery {
			lastSweep = now
			for fd, c := range l.parked {
				if now.Sub(c.park.since) >= idle {
					delete(l.parked, fd)
					reap = append(reap, c)
				}
			}
		}
		l.mu.Unlock()
		s.parkedConns.Add(-int64(len(wake) + len(reap)))
		s.activations.Add(0, uint64(len(wake)))
		for _, c := range wake {
			l.t.activate(c)
		}
		for _, c := range reap {
			l.t.drop(c)
		}
	}
}

// stop ends the lot: park refuses from here on and run has returned. The
// connections still parked are returned for the caller to drop.
func (l *parkingLot) stop() []*srvConn {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.ep.Close()
	<-l.done
	left := make([]*srvConn, 0, len(l.parked))
	for _, c := range l.parked {
		left = append(left, c)
	}
	l.parked = nil
	l.t.s.parkedConns.Add(-int64(len(left)))
	return left
}

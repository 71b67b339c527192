package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one line of trace.jsonl. Spans of one request share req; parent
// is the span that caused this one, 0 for the request's root span. Times
// are nanoseconds since the trace began.
type span struct {
	Req    int    `json:"req"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// request opens a new request and returns its id.
func (l *spanLog) request() int {
	l.reqs++
	return l.reqs
}

// add records one span and returns its id within the request.
func (l *spanLog) add(req, id, parent int, name string, start, end time.Time) {
	l.spans = append(l.spans, span{
		Req: req, Span: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's share of the requests it appears in.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_self_ns"`
}

// selfTimes reduces spans whose name has the given prefix-free root to mean
// self time per span name: a span's duration minus the part of it its
// children cover. Children of one parent never overlap here, so that part
// is the sum of their durations.
func (l *spanLog) selfTimes() []selfTime {
	type key struct{ req, span int }
	covered := make(map[key]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			covered[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	sum := make(map[string]*selfTime)
	for _, s := range l.spans {
		st := sum[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			sum[s.Name] = st
		}
		st.Count++
		st.MeanNs += float64(s.End - s.Start - covered[key{s.Req, s.Span}])
	}
	out := make([]selfTime, 0, len(sum))
	for _, st := range sum {
		st.MeanNs /= float64(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// opTimes are the client-side instants of one traced request.
type opTimes struct {
	gen0, send0, send1, wait0, wait1, verify1 time.Time
}

type tracedOp struct {
	name string
	t    opTimes
}

// connTrace samples one request in every and keeps its instants. A nil
// connTrace samples nothing, so an untraced run pays one nil check per op.
type connTrace struct {
	every int
	mu    sync.Mutex // one goroutine per connection records
	ops   []tracedOp
}

func (t *connTrace) sample(i int) *opTimes {
	if t == nil || i%t.every != 0 {
		return nil
	}
	return new(opTimes)
}

func (t *connTrace) record(x *inflight) {
	t.mu.Lock()
	t.ops = append(t.ops, tracedOp{name: "client:" + x.op.String(), t: *x.ts})
	t.mu.Unlock()
}

// spansInto turns the sampled requests into a root span per request with
// gen, send, wait and verify children. The root's self time is the time
// the request spent in the pipeline window while the client worked on
// other requests.
func (t *connTrace) spansInto(l *spanLog) {
	for _, o := range t.ops {
		req := l.request()
		l.add(req, 1, 0, o.name, o.t.gen0, o.t.verify1)
		l.add(req, 2, 1, "gen", o.t.gen0, o.t.send0)
		l.add(req, 3, 1, "send", o.t.send0, o.t.send1)
		l.add(req, 4, 1, "wait", o.t.wait0, o.t.wait1)
		l.add(req, 5, 1, "verify", o.t.wait1, o.t.verify1)
	}
}

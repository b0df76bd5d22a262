package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one unit of
// work (a production run, a RECAST request, a served request) share a
// Trace; Parent is the span that caused this one, 0 for a root.
type Span struct {
	Name   string        `json:"name"`
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTrace allocates a trace identifier; 0 from a nil tracer.
func (t *Tracer) NewTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// OpenSpan is a span that has started and not yet ended.
type OpenSpan struct {
	t    *Tracer
	span Span
}

// Begin opens a span. With a nil tracer or trace 0 (an untraced unit of
// work) it returns an inert handle.
func (t *Tracer) Begin(name string, trace, parent uint64) OpenSpan {
	if t == nil || trace == 0 {
		return OpenSpan{}
	}
	return OpenSpan{t: t, span: Span{
		Name: name, Trace: trace, ID: t.ids.Add(1), Parent: parent,
		Start: time.Since(t.epoch),
	}}
}

// ID is the span's identifier, the parent of spans it causes; 0 when inert.
func (o OpenSpan) ID() uint64 { return o.span.ID }

// Trace is the span's trace identifier; 0 when inert.
func (o OpenSpan) Trace() uint64 { return o.span.Trace }

// End closes and records the span.
func (o OpenSpan) End() {
	if o.t == nil {
		return
	}
	o.span.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
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

// SelfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its children cover. Overlapping
// children (a quorum write fanning out to three nodes) count once.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// scope tracks the open span of a sequential caller, so a wrapper that
// cannot receive a context (cas.Backend, an http.Handler on another
// goroutine) can find its parent. It is exact only where the caller has
// one call in flight at a time, which the produce archive phase ensures.
type scope struct{ cur atomic.Pointer[OpenSpan] }

// enter makes o the current span and returns a func restoring the old one.
func (s *scope) enter(o OpenSpan) func() {
	prev := s.cur.Load()
	s.cur.Store(&o)
	return func() { s.cur.Store(prev) }
}

// parent returns the current span's trace and ID, zeros when none.
func (s *scope) parent() (trace, id uint64) {
	if o := s.cur.Load(); o != nil {
		return o.Trace(), o.ID()
	}
	return 0, 0
}

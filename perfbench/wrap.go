package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"

	"daspos/internal/cas"
	"daspos/internal/hepdata"
	"daspos/internal/leshouches"
	"daspos/internal/queryserve"
	"daspos/internal/recast"
)

// The wrappers below sit on the public interfaces between layers. They
// time each call and forward it unchanged; where the program probes the
// wrapped value for an optional interface, the wrapper implements that
// interface exactly when the wrapped value does, so wrapping never changes
// which code path the program takes.

// backendCounters are the cluster client's byte and error counts.
type backendCounters struct {
	logical, stored, getBytes, failed atomic.Int64
}

// tracedBackend wraps the cluster client in its cas.Backend role.
type tracedBackend struct {
	inner  cas.Backend
	tr     *Tracer
	parent *scope // the cas.Store call in flight
	self   *scope // published to the node handlers beneath
	n      *backendCounters
}

// tracedCorruptBackend adds cas.Corrupter for inner backends that have it.
type tracedCorruptBackend struct {
	*tracedBackend
	c cas.Corrupter
}

func (b tracedCorruptBackend) CorruptBlob(digest string) error { return b.c.CorruptBlob(digest) }

func wrapBackend(inner cas.Backend, tr *Tracer, parent, self *scope, n *backendCounters) cas.Backend {
	b := &tracedBackend{inner: inner, tr: tr, parent: parent, self: self, n: n}
	if c, ok := inner.(cas.Corrupter); ok {
		return tracedCorruptBackend{b, c}
	}
	return b
}

func (b *tracedBackend) begin(name string) func() {
	trace, pid := b.parent.parent()
	o := b.tr.Begin(name, trace, pid)
	if o.t == nil {
		return func() {}
	}
	restore := b.self.enter(o)
	return func() { restore(); o.End() }
}

func (b *tracedBackend) PutBlob(digest string, comp []byte, logical int64) error {
	end := b.begin("cluster.PutBlob")
	err := b.inner.PutBlob(digest, comp, logical)
	end()
	if err != nil {
		b.n.failed.Add(1)
	} else {
		b.n.logical.Add(logical)
		b.n.stored.Add(int64(len(comp)))
	}
	return err
}

func (b *tracedBackend) GetBlob(digest string) ([]byte, int64, error) {
	end := b.begin("cluster.GetBlob")
	comp, logical, err := b.inner.GetBlob(digest)
	end()
	if err != nil {
		b.n.failed.Add(1)
	} else {
		b.n.getBytes.Add(int64(len(comp)))
	}
	return comp, logical, err
}

func (b *tracedBackend) HasBlob(digest string) bool {
	end := b.begin("cluster.HasBlob")
	defer end()
	return b.inner.HasBlob(digest)
}

func (b *tracedBackend) DeleteBlob(digest string) {
	end := b.begin("cluster.DeleteBlob")
	defer end()
	b.inner.DeleteBlob(digest)
}

func (b *tracedBackend) Digests() []string { return b.inner.Digests() }

// nodeCounters count a fleet's put and get requests and put body bytes.
type nodeCounters struct {
	requests, putBytes atomic.Int64
}

// wrapNode times a storage node's handler. The ResponseWriter and Request
// pass through untouched, so every optional interface of the writer
// (Flusher, Hijacker) stays visible to the node.
func wrapNode(h http.Handler, tr *Tracer, parent *scope, n *nodeCounters) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "node.other"
		switch r.Method {
		case http.MethodPut:
			name = "node.put"
			n.requests.Add(1)
			n.putBytes.Add(max(r.ContentLength, 0))
		case http.MethodGet, http.MethodHead:
			name = "node.get"
			n.requests.Add(1)
		}
		trace, pid := parent.parent()
		o := tr.Begin(name, trace, pid)
		h.ServeHTTP(w, r)
		o.End()
	})
}

// tracedStore wraps the query tier's record store (cache misses, exports).
// The interface carries no request context, so its spans belong to one
// store trace and have no parent.
type tracedStore struct {
	inner queryserve.RecordStore
	tr    *Tracer
	trace uint64
	reads atomic.Int64
}

func (s *tracedStore) Get(id string) (*hepdata.Record, error) {
	s.reads.Add(1)
	o := s.tr.Begin("hepdata.RecordStore.Get", s.trace, 0)
	rec, err := s.inner.Get(id)
	o.End()
	return rec, err
}

// tracedRecast wraps a RECAST back end. A request's trace is looked up by
// its model, which the requester registers before submitting.
type tracedRecast struct {
	inner  recast.Backend
	tr     *Tracer
	traces sync.Map // recast.ModelSpec → [2]uint64{trace, parent}
}

// tracedRecastDigest adds recast.ConfigDigester for inner back ends that
// have it. Without it the server would key dedup on the back-end name and
// the benchmark would measure a different program.
type tracedRecastDigest struct {
	*tracedRecast
	d recast.ConfigDigester
}

func (b tracedRecastDigest) ConfigDigest() string { return b.d.ConfigDigest() }

// wrapRecast returns the wrapper and the handle used to register traces.
func wrapRecast(inner recast.Backend, tr *Tracer) (recast.Backend, *tracedRecast) {
	b := &tracedRecast{inner: inner, tr: tr}
	if d, ok := inner.(recast.ConfigDigester); ok {
		return tracedRecastDigest{b, d}, b
	}
	return b, b
}

// expect registers the trace a later Process call for model belongs to.
func (b *tracedRecast) expect(model recast.ModelSpec, trace, parent uint64) {
	if b.tr != nil && trace != 0 {
		b.traces.Store(model, [2]uint64{trace, parent})
	}
}

func (b *tracedRecast) Name() string { return b.inner.Name() }

func (b *tracedRecast) Process(ctx context.Context, model recast.ModelSpec, record *leshouches.AnalysisRecord) (*recast.Result, error) {
	var o OpenSpan
	if v, ok := b.traces.Load(model); ok {
		ids := v.([2]uint64)
		o = b.tr.Begin("recast.Backend.Process", ids[0], ids[1])
	}
	res, err := b.inner.Process(ctx, model, record)
	o.End()
	return res, err
}

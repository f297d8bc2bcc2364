package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a grid job, an HTTP request, a stream compile) share req; the
// operation's own span is the root of that tree and has parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer is the
// untraced run: root and childOf return nil and every method on a nil handle is a
// no-op, so call sites need no branches.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// live is an open span.
type live struct {
	tr *tracer
	s  span
}

// root opens the span of a new operation; its id doubles as the request id.
func (t *tracer) root(name string) *live {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &live{tr: t, s: span{ID: id, Req: id, Name: name, Start: t.now()}}
}

// child opens a span under parent (a no-op when parent is nil).
func (p *live) child(name string) *live {
	if p == nil {
		return nil
	}
	return p.tr.childOf(name, p.s.ID, p.s.Req)
}

// childOf opens a span under a parent known only by id, for spans recorded
// on another goroutine than their parent (the server side of a request).
func (t *tracer) childOf(name string, parent, req uint64) *live {
	if t == nil {
		return nil
	}
	return &live{tr: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: t.now()}}
}

func (p *live) end() {
	if p == nil {
		return
	}
	p.s.End = p.tr.now()
	p.tr.mu.Lock()
	p.tr.spans = append(p.tr.spans, p.s)
	p.tr.mu.Unlock()
}

func (p *live) id() (id, req uint64) {
	if p == nil {
		return 0, 0
	}
	return p.s.ID, p.s.Req
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// work under one parent) count once, and a child reaching outside its
// parent counts only inside it.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerSelf groups self times (ns) by span name.
func layerSelf(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID]))
	}
	return out
}

// unattributed is the mean, per root span named op, of the root's duration
// minus the self time of its descendants whose names are in layers: the part
// of an operation's end-to-end time that no reported layer accounts for.
func unattributed(spans []span, op string, layers map[string]bool) (perOpNs float64, ops int) {
	self := selfTimes(spans)
	roots := make(map[uint64]bool)
	var total int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == op {
			roots[s.Req] = true
			total += s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && roots[s.Req] && layers[s.Name] {
			total -= self[s.ID]
		}
	}
	if len(roots) == 0 {
		return 0, 0
	}
	return float64(total) / float64(len(roots)), len(roots)
}

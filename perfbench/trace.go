package main

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed job share
// Job; Parent is the enclosing span (-1 for the job's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory. It is driven from one goroutine: the
// open-span stack supplies each new span's parent. Every hook the replay
// installs (readers, writers, verifiers, cluster hooks) runs on the
// goroutine that called into the layer, so the stack stays exact.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	job   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and every span opened inside it that is still open
// (only an error path leaves one open).
func (t *tracer) end(id int) {
	now := t.now()
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// do runs fn inside a span and returns the span's id with fn's error.
func (t *tracer) do(name string, fn func() error) (int, error) {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return id, err
}

func (t *tracer) dur(id int) float64 { return t.spans[id].dur() }

// split divides closed span id at time at into two child phases, and
// moves id's direct children under the phase they started in.
func (t *tracer) split(id int, at float64, first, second string) {
	p := t.spans[id]
	a := len(t.spans)
	t.spans = append(t.spans,
		span{ID: a, Parent: id, Job: p.Job, Name: first, Start: p.Start, End: at},
		span{ID: a + 1, Parent: id, Job: p.Job, Name: second, Start: at, End: p.End})
	for i := range t.spans[:a] {
		if t.spans[i].Parent == id {
			if t.spans[i].Start < at {
				t.spans[i].Parent = a
			} else {
				t.spans[i].Parent = a + 1
			}
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover. Children never overlap: they run on the one goroutine
// the tracer follows.
func (t *tracer) selfTimes(job int) map[string]float64 {
	self := make(map[int]float64)
	for _, s := range t.spans {
		if s.Job == job {
			self[s.ID] += s.dur()
			if s.Parent >= 0 {
				self[s.Parent] -= s.dur()
			}
		}
	}
	out := make(map[string]float64)
	for id, v := range self {
		out[t.spans[id].Name] += v
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedReader records a span around every Read.
type timedReader struct {
	t    *tracer
	name string
	r    io.Reader
}

func (r timedReader) Read(p []byte) (int, error) {
	id := r.t.begin(r.name)
	n, err := r.r.Read(p)
	r.t.end(id)
	return n, err
}

// timedWriter records a span around every Write.
type timedWriter struct {
	t    *tracer
	name string
	w    io.Writer
}

func (w timedWriter) Write(p []byte) (int, error) {
	id := w.t.begin(w.name)
	n, err := w.w.Write(p)
	w.t.end(id)
	return n, err
}

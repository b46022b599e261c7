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

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Start and End are nanoseconds since the tracer started. Spans of one
// request, probe or batch share Req; Parent is the span that caused this one
// (0 for a root). N is the number of calls a replay span stands for.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int    `json:"n,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil Tracer records
// nothing, which is how the untraced run runs.
type Tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// ID allocates a span id ahead of the span's end, so children can name their
// parent while it is still open.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Record stores a finished span.
func (t *Tracer) Record(name string, id, parent, req uint64, start, end time.Time, n int) {
	if t == nil {
		return
	}
	s := Span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps each span id to the span's self time: its duration minus
// the part of its interval that its child spans cover (overlapping children
// are counted once, and a child is clipped to its parent).
func selfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// durationsMS returns the durations, in milliseconds, of the spans with the
// given name, in recording order.
func durationsMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

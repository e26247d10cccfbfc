package main

// Spans of the traced run. Every span is recorded from the benchmark's own
// code — around a call into a layer's public functions, or inside a
// benchmark-owned wal.File / wal.InnerPager wrapper — kept in memory and
// written out once, when the run ends.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0: none), so self time is the span
// minus what its children cover.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// untraced run shares the traced run's code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int32 // innermost open span of the single-threaded ladder
	req   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished root span from times the caller took anyway.
func (t *tracer) add(name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and makes it innermost;
// the returned function closes it and returns its length in nanoseconds.
// The ladder runs on one goroutine, so one "current span" is enough to give
// wrapper-recorded spans their parent.
func (t *tracer) begin(name string) (end func() int64) {
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	parent := t.cur
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.cur = id
	t.mu.Unlock()
	return func() int64 {
		now := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = now
		t.cur = parent
		d := now - t.spans[id-1].Start
		t.mu.Unlock()
		return d
	}
}

// nextReq starts a new request: spans begun from here on carry its id.
func (t *tracer) nextReq() {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// medianUs is the median length of the spans called name, in microseconds.
func (t *tracer) medianUs(name string) float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return median(us)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

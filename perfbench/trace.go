package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one budget step, request or pass share an Op id; Parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer (~20 MB); later spans are
// counted as dropped rather than recorded.
const maxSpans = 1 << 18

// tracer records spans in memory and writes them out when the run ends.
// A nil tracer, or one switched off, records nothing and costs one atomic
// load per call, so workload code calls it unconditionally.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	nextOp  atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1024)}
	t.on.Store(true)
	return t
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setOn switches recording on or off; the traced run alternates the two to
// measure tracing overhead.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// newOp returns a fresh operation id (0 when not recording).
func (t *tracer) newOp() int64 {
	if !t.enabled() {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent int, op int64) int {
	if !t.enabled() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id; id 0 is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores every span as one JSON object per line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// durUs converts durations to float microseconds.
func durUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

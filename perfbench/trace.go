package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call of the benchmark into a layer of the engine.
// Spans of one op share Op; Parent is the ID of the enclosing span (0 for
// an op's root). Start and End are seconds since the run began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced ops run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	tr    *tracer
	s     span
	start time.Time
}

// start opens a span under parent (nil for an op's root). On a nil tracer
// it returns nil, and ending a nil span is a no-op.
func (tr *tracer) start(name string, parent *active, op int) *active {
	if tr == nil {
		return nil
	}
	now := time.Now()
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Op: op, Name: name})
	tr.mu.Unlock()
	a := &active{tr: tr, start: now, s: span{ID: id, Op: op, Name: name, Start: now.Sub(tr.t0).Seconds()}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	return a
}

// end closes the span and returns its duration in seconds.
func (a *active) end() float64 {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.s.End = now.Sub(a.tr.t0).Seconds()
	a.tr.mu.Lock()
	a.tr.spans[a.s.ID-1] = a.s
	a.tr.mu.Unlock()
	return now.Sub(a.start).Seconds()
}

// write stores the spans as JSON lines in dir/name.
func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	n := len(tr.spans)
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}

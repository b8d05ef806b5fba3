package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; nothing inside the program is instrumented.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer times
// calls without recording them, which is the untraced path.
type tracer struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

// do runs f inside a span named name under parent and returns its
// duration; f receives the span's id for its own children.
func (t *tracer) do(parent int64, name string, f func(id int64)) time.Duration {
	if t == nil {
		start := time.Now()
		f(0)
		return time.Since(start)
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, ID: id, Parent: parent,
		StartNs: start.Sub(t.base).Nanoseconds(), EndNs: end.Sub(t.base).Nanoseconds(),
	})
	t.mu.Unlock()
	return end.Sub(start)
}

// time is do for a leaf call.
func (t *tracer) time(parent int64, name string, f func()) time.Duration {
	return t.do(parent, name, func(int64) { f() })
}

// write stores the spans as JSON Lines, one span per line, in end order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

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

// bspan is one span recorded by the benchmark around a call into the
// system: what was called, when it started and ended, which span caused
// it, and the request it belongs to (0 for calls that serve no single
// request). Spans inside the program are the nodes' own (Node.Spans).
type bspan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, which is how an untraced run is written.
type tracer struct {
	mu    sync.Mutex
	spans []bspan
}

// begin opens a span and returns it by value; end files it.
func (t *tracer) begin(name string, parent, req uint64) bspan {
	if t == nil {
		return bspan{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, bspan{})
	return bspan{ID: uint64(len(t.spans)), Parent: parent, Req: req, Name: name, Start: time.Now().UnixNano()}
}

func (t *tracer) end(s bspan) {
	if t == nil {
		return
	}
	s.End = time.Now().UnixNano()
	t.mu.Lock()
	t.spans[s.ID-1] = s
	t.mu.Unlock()
}

// invocation files the span of one Invoke from the timestamps the load
// generator took anyway, so tracing adds nothing to the invocation path.
func (t *tracer) invocation(req, parent uint64, epoch time.Time, s sample) {
	if t == nil {
		return
	}
	name := "Invoke"
	if !s.OK {
		name = "Invoke(failed)"
	}
	start := epoch.Add(s.At + s.Late)
	t.mu.Lock()
	t.spans = append(t.spans, bspan{
		ID: uint64(len(t.spans) + 1), Parent: parent, Req: req + 1, Name: name,
		Start: start.UnixNano(), End: epoch.Add(s.At + s.Lat).UnixNano(),
	})
	t.mu.Unlock()
}

// selfTimes is each span name's total duration minus the part its child
// spans cover, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make(map[uint64]int64)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if self := s.End - s.Start - covered[s.ID]; self > 0 {
			out[s.Name] += float64(self) / 1e9
		}
	}
	return out
}

// traceFile is what a traced run leaves in bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SHA      string             `json:"sha"`
	Rows     []row              `json:"rows"`
	SelfS    map[string]float64 `json:"self_seconds_by_span"`
	Spans    []bspan            `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

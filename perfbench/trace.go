package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the index of the enclosing span,
// -1 for a root; Req ties together the spans of one request or run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  int64(start.Sub(t.epoch)),
		End:    int64(end.Sub(t.epoch)),
		Parent: parent,
		Req:    req,
	})
	return int32(len(t.spans) - 1)
}

// layer is the span name's layer: the part before the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTime returns each layer's self time: the summed duration of its
// spans minus the durations of their child spans. Children of one span
// never overlap each other, so subtracting their durations subtracts the
// part of the parent they cover.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[layer(s.Name)] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores head and then the spans as JSON lines, one span per line.
func (t *tracer) write(path string, head []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.Write(append(head, '\n'))
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// setSelfMetrics reports each layer's self time per operation.
func setSelfMetrics(r *result, t *tracer, ops int) {
	for l, d := range t.selfTime() {
		name := "self." + l + "_ms"
		for _, def := range perLayer {
			if def.Name == name {
				r.set(name, ratio(float64(d)/1e6, float64(ops)))
			}
		}
	}
	r.set("trace.spans", float64(t.len()))
}

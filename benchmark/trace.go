package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one operation share op; parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the timed window opened
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"` // e.g. the deciding layer of an smt.check
}

// tracer keeps spans in memory; it is a no-op when off so that the
// untraced run pays nothing but a branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int, tag string) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].Tag = tag
}

// busyMS sums the durations of the spans named name (and tagged tag,
// unless tag is empty).
func (t *tracer) busyMS(name, tag string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// write stores the spans as JSON lines under .bench_build/trace.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a program package. Spans
// of one request share req; parent is the index of the enclosing span
// (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write dumps them once the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, key string, req, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Key: key, Req: req, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// call runs f inside a span.
func (r *recorder) call(name, key string, req, parent int, f func()) {
	id := r.begin(name, key, req, parent)
	f()
	r.end(id)
}

// ms returns the durations in milliseconds of the spans named name, and
// with the given key unless key is "*".
func (r *recorder) ms(name, key string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (key == "*" || s.Key == key) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"perfbench-spans/v1", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailOK reports whether at least ten of n samples lie beyond quantile q,
// the least that makes a percentile worth reporting.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request id shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, req int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// add records an already measured interval as a closed span.
func (r *recorder) add(name string, req int64, parent int, start time.Time, d time.Duration) int {
	if r == nil {
		return -1
	}
	s := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(r.spans) - 1
}

// selfTimes returns, per span name, each span's self time in
// milliseconds: its duration less the time its direct children cover.
// Children of one span never overlap here, so their durations add.
func (r *recorder) selfTimes() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		self := s.End - s.Start - child[i]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself records nothing).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"` // request id shared by a request's spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span starting now and returns its id; pass it to end.
func (r *recorder) begin(name, req string, parent int) int {
	return r.beginAt(name, req, parent, time.Now())
}

// beginAt opens a span that started at t.
func (r *recorder) beginAt(name, req string, parent int, t time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: t.Sub(r.t0).Nanoseconds()})
	return len(r.spans)
}

// end closes span id now.
func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

// endAt closes span id at t.
func (r *recorder) endAt(id int, t time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t.Sub(r.t0).Nanoseconds()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON under dir/name and returns the path.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	blob, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, blob, 0o644)
}

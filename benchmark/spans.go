package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory and writes them
// out when the run ends. Spans are recorded here, around the calls the
// benchmark makes into each layer; the program under test is not
// instrumented. A nil recorder records nothing, so untraced runs pay
// one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRecord
}

type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	Request string  `json:"request,omitempty"` // shared by the spans of one request
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type span struct {
	rec   *recorder
	idx   int
	begin time.Time
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span. With a nil recorder it still returns a span that
// measures its own duration, so callers time a call and record it with
// the same two lines.
func (r *recorder) start(name string, parent *span, request string) *span {
	s := &span{begin: time.Now(), idx: -1}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := spanRecord{ID: len(r.spans) + 1, Name: name, Request: request, StartUS: us(s.begin.Sub(r.epoch))}
	if parent != nil && parent.idx >= 0 {
		rec.Parent = parent.idx + 1
	}
	s.rec, s.idx = r, len(r.spans)
	r.spans = append(r.spans, rec)
	return s
}

// end closes the span and returns its duration in seconds.
func (s *span) end() float64 {
	now := time.Now()
	if s.rec != nil {
		s.rec.mu.Lock()
		s.rec.spans[s.idx].EndUS = us(now.Sub(s.rec.epoch))
		s.rec.mu.Unlock()
	}
	return now.Sub(s.begin).Seconds()
}

// writeFile writes one JSON object per span.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

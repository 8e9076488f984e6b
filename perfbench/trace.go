package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps spans in memory for the traced run and writes them
// out when the run ends. Spans are recorded only from the benchmark's
// own files, around its calls into the program's packages. A nil
// recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	t0   time.Time
	reqs atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the index of the span that caused
// it (-1 for a root); Req groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// maxSpans bounds the recorder's memory; spans past it are dropped and
// counted out of the layer figures.
const maxSpans = 1 << 20

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newReq returns a fresh request id.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	return r.reqs.Add(1)
}

// start opens a span and returns its id (-1 when not recorded).
func (r *recorder) start(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose name is known only after the call.
func (r *recorder) add(name string, parent int32, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Parent: parent, Req: req})
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent int32, req int64, fn func()) {
	id := r.start(name, parent, req)
	fn()
	r.end(id)
}

// durations returns the closed spans' durations by name, in µs.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write saves every span as one JSON line, followed by the ledger.
func (r *recorder) write(path string, ledger any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := enc.Encode(map[string]any{"ledger": ledger}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

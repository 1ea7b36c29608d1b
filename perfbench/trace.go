package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module's public API.
// Spans caused by one trial, request, rank or ring run share its group id;
// -1 marks a span of no such unit.
type span struct {
	Name  string  `json:"name"`
	Group int     `json:"group"`
	Start float64 `json:"start_ms"` // since the recorder was created
	Dur   float64 `json:"dur_ms"`
}

// recorder keeps spans in memory until the run ends; nothing is written
// while a workload is being timed. It is safe for concurrent use.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	values map[string][]float64 // counts observed at span boundaries
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), values: map[string][]float64{}} }

// observe records a count measured at a span boundary, such as the size of
// a file a span wrote.
func (r *recorder) observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = append(r.values[name], v)
}

// observed returns every value recorded under name.
func (r *recorder) observed(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.values[name]...)
}

// add records a finished span.
func (r *recorder) add(name string, start time.Time, d time.Duration, group int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Group: group, Start: ms(start.Sub(r.t0)), Dur: ms(d)})
}

// since records a span that started at start and ends now.
func (r *recorder) since(name string, start time.Time, group int) {
	r.add(name, start, time.Since(start), group)
}

// durations returns the duration in ms of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
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
			return fmt.Errorf("write trace: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

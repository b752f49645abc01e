package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanID indexes tracer.spans; zero is "no span", so a nil tracer's spans
// can be passed around as parents without checks.
type spanID int

// span is one timed call the driver made into a layer's public API.
type span struct {
	Name string `json:"name"`
	// StartNs and EndNs are host nanoseconds since the tracer was made.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Parent is the ID of the span that caused this one (0 for a
	// repetition's root); IDs are positions in the spans array, from 1.
	Parent spanID `json:"parent"`
	// Rep is the repetition the span belongs to: spans of one repetition
	// share it.
	Rep int `json:"rep"`
}

// tracer keeps spans in memory until the run ends. All methods are no-ops
// on a nil tracer, which is how untraced repetitions run the same code.
// Campaign workers record spans concurrently, hence the lock.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	rep     int
	repRoot spanID
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginRep opens the root span of the next repetition.
func (t *tracer) beginRep() {
	t.rep++
	t.repRoot = t.begin(0, "repetition")
}

func (t *tracer) endRep() { t.end(t.repRoot) }

// root returns the current repetition's root span.
func (t *tracer) root() spanID {
	if t == nil {
		return 0
	}
	return t.repRoot
}

func (t *tracer) begin(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, StartNs: int64(time.Since(t.t0))})
	return spanID(len(t.spans))
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// duration reports a finished span's length in seconds.
func (t *tracer) duration(id spanID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// durations collects the lengths, in seconds, of every span with the given
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// perRep sums the spans with the given name within each repetition.
func (t *tracer) perRep(name string) []float64 {
	sums := make([]float64, t.rep)
	seen := false
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Rep-1] += float64(s.EndNs-s.StartNs) / 1e9
			seen = true
		}
	}
	if !seen {
		return nil
	}
	return sums
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	// CPUSeconds is the CPU profile folded by layer: self time of the
	// samples whose leaf frame is in one of the layer's packages.
	CPUSeconds map[string]float64 `json:"cpu_seconds"`
}

// traceDir is where traced runs write, relative to the working directory
// (the repo root, as go run ./bench is started there).
var traceDir = "bench/out"

func (f traceFile) write() (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	js, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, f.Workload+".trace.json")
	return path, os.WriteFile(path, append(js, '\n'), 0o644)
}

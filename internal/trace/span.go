package trace

import (
	"sync"
	"time"
)

// Span is one named interval of real work recorded during an exploration:
// an engine worker enumerating a subtree task, a checkpoint being written,
// a whole run. Unlike Event — which lives in the simulated execution's
// logical time — a span carries wall-clock timestamps, so exported spans
// show where the machine actually spent its time.
type Span struct {
	// Name labels the span (e.g. "task", "checkpoint", "run").
	Name string `json:"name"`
	// Cat groups spans for filtering in trace viewers ("worker",
	// "checkpoint", ...).
	Cat string `json:"cat,omitempty"`
	// PID identifies the owning engine worker (Perfetto's process lane).
	PID int `json:"pid"`
	// TID subdivides a worker's lane; -1 when the span has no sub-lane.
	TID int `json:"tid"`
	// Start is nanoseconds since the recorder was created (monotonic).
	Start int64 `json:"start_ns"`
	// Dur is the span duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Args carries span-specific detail (task depth, executions, bytes).
	Args map[string]any `json:"args,omitempty"`
}

// DefaultSpanCap bounds how many spans a Recorder retains. Long sweeps can
// enumerate hundreds of thousands of donated tasks; the cap keeps the
// recorder's memory bounded while Dropped makes the truncation visible.
const DefaultSpanCap = 16384

// Recorder collects spans from concurrent engine workers. All methods are
// safe for concurrent use and safe on a nil *Recorder (they do nothing), so
// instrumentation threads through unconditionally.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	cap     int
	spans   []Span
	dropped int64
}

// NewRecorder returns a recorder retaining at most cap spans (0 means
// DefaultSpanCap).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultSpanCap
	}
	return &Recorder{start: time.Now(), cap: cap}
}

// Begin returns the wall-clock instant to pass back to End. Nil-safe: on a
// nil recorder the zero time is returned and End discards it.
func (r *Recorder) Begin() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records one span that started at the given Begin instant. Args is
// retained, not copied; callers must not mutate it afterwards.
func (r *Recorder) End(name, cat string, pid, tid int, start time.Time, args map[string]any) {
	if r == nil || start.IsZero() {
		return
	}
	s := Span{
		Name:  name,
		Cat:   cat,
		PID:   pid,
		TID:   tid,
		Start: start.Sub(r.start).Nanoseconds(),
		Dur:   time.Since(start).Nanoseconds(),
		Args:  args,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.cap {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Spans returns a copy of the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Dropped returns how many spans the cap discarded — exported alongside the
// spans so a truncated recording never reads as a complete one.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

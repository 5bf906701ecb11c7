package trace

import (
	"sync"
	"testing"
)

func TestRecorderRecordsSpans(t *testing.T) {
	r := NewRecorder(0)
	start := r.Begin()
	r.End("task", "worker", 3, -1, start, map[string]any{"executions": 7})
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "task" || s.Cat != "worker" || s.PID != 3 || s.TID != -1 {
		t.Errorf("span fields = %+v", s)
	}
	if s.Start < 0 || s.Dur < 0 {
		t.Errorf("span times must be non-negative: %+v", s)
	}
	if s.Args["executions"] != 7 {
		t.Errorf("args lost: %+v", s.Args)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	start := r.Begin()
	if !start.IsZero() {
		t.Error("nil recorder must hand out the zero time")
	}
	r.End("x", "", 0, 0, start, nil) // must not panic
	if r.Spans() != nil || r.Dropped() != 0 {
		t.Error("nil recorder must report nothing")
	}
}

func TestRecorderZeroStartDiscarded(t *testing.T) {
	r := NewRecorder(0)
	r.End("x", "", 0, 0, (&Recorder{}).start, nil) // zero time: from a nil Begin
	if len(r.Spans()) != 0 {
		t.Error("a span with a zero start must be discarded")
	}
}

func TestRecorderCapAndDropped(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.End("s", "", 0, 0, r.Begin(), nil)
	}
	if got := len(r.Spans()); got != 2 {
		t.Errorf("cap 2 retained %d spans", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.End("s", "worker", w, -1, r.Begin(), nil)
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Spans()); got != 800 {
		t.Errorf("got %d spans, want 800", got)
	}
}

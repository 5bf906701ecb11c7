package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/trace/export"
)

// Tracer captures executions of an engine run as trace files in a
// directory (which may be a run-store directory, so traces live next to
// the checkpoints): every violating execution is written as a trace/v1
// JSONL file plus a Perfetto-loadable JSON timeline, passing executions are
// sampled 1-in-N, and the engine's wall-clock spans (worker tasks,
// checkpoint writes) are sealed into a spans file on Close.
//
// A Tracer is safe for concurrent use by the engine's workers. Each
// artifact kind is numbered on its own, so the first violation is always
// violation-000001 however many samples other workers captured before it.
// Numbers continue past any files already in the directory, so several
// explorations (an experiment sweep, a resumed run) can share one trace
// directory without clobbering each other.
type Tracer struct {
	dir     string
	sampleN int64
	runMeta map[string]string
	rec     *trace.Recorder

	seq    map[string]*atomic.Int64 // last file number per artifact kind; keys fixed by NewTracer
	passes atomic.Int64             // passing executions seen (sampling clock)

	violations atomic.Int64 // violating executions captured
	samples    atomic.Int64 // passing executions captured
	skipped    atomic.Int64 // violating executions beyond the capture cap

	// Captures are written by one background goroutine: the exploration
	// workers only build the execution (execState.keep, one recording
	// replay) and enqueue it, so file creation and JSON encoding overlap with
	// replays instead of stalling them. Close drains the queue before
	// sealing the spans, so every enqueued capture is written and closed
	// when Close returns. Nothing syncs a trace: a file a crash cut short
	// lacks its end record, and export.Read refuses it with
	// export.ErrTruncated. The first write error is sticky: later captures
	// and Close report it (the queue keeps draining without writing).
	work chan captureJob
	done chan struct{}
	werr atomic.Pointer[error]

	mu     sync.Mutex // guards closed (capture enqueue vs Close)
	closed bool
}

// captureJob is one queued trace artifact pair (trace/v1 + Perfetto).
type captureJob struct {
	base string
	x    *export.Execution
}

// MaxViolationCaptures bounds how many violating executions one Tracer
// writes out. Exhaustive explorations of an impossibility configuration can
// visit millions of violating leaves; the cap keeps the directory bounded
// while Summary reports how many captures were skipped.
const MaxViolationCaptures = 64

// fileSeq matches the kind and number in artifact names
// (violation-000003.jsonl, sample-000007.perfetto.json, spans-000009.jsonl).
var fileSeq = regexp.MustCompile(`^(violation|sample|spans)-(\d+)\.(?:jsonl|perfetto\.json)$`)

// NewTracer opens (creating if needed) dir as a trace directory. sampleN
// picks the passing-execution sampling rate: every sampleN-th passing
// execution is captured (0 disables passing-run capture; violations are
// always captured). runMeta is the flat settings map sealed into every
// trace header so `modelcheck -explain` can reconstruct the configuration
// from the file alone.
func NewTracer(dir string, sampleN int, runMeta map[string]string) (*Tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: trace dir: %w", err)
	}
	t := &Tracer{
		dir:     dir,
		sampleN: int64(sampleN),
		runMeta: runMeta,
		rec:     trace.NewRecorder(0),
		work:    make(chan captureJob, 64),
		done:    make(chan struct{}),
		seq: map[string]*atomic.Int64{
			"violation": new(atomic.Int64), "sample": new(atomic.Int64), "spans": new(atomic.Int64),
		},
	}
	// Continue numbering past whatever is already there.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("explore: trace dir: %w", err)
	}
	for _, e := range entries {
		if m := fileSeq.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.ParseInt(m[2], 10, 64); err == nil && n > t.seq[m[1]].Load() {
				t.seq[m[1]].Store(n)
			}
		}
	}
	go t.writeLoop()
	return t, nil
}

// writeLoop is the single capture writer: it drains the queue, writing each
// capture as a trace/v1 file plus its Perfetto rendering. After a write
// error it keeps draining (so enqueuers never block on a dead tracer) but
// writes nothing further; the error surfaces on the next capture and Close.
func (t *Tracer) writeLoop() {
	defer close(t.done)
	for job := range t.work {
		if t.werr.Load() != nil {
			continue
		}
		if err := export.WriteExecution(filepath.Join(t.dir, job.base+".jsonl"), job.x); err != nil {
			t.werr.CompareAndSwap(nil, &err)
			continue
		}
		if err := export.WritePerfetto(filepath.Join(t.dir, job.base+".perfetto.json"), job.x); err != nil {
			t.werr.CompareAndSwap(nil, &err)
		}
	}
}

// err returns the sticky first write error of the background writer.
func (t *Tracer) err() error {
	if p := t.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// Dir returns the trace directory.
func (t *Tracer) Dir() string { return t.dir }

// Recorder returns the wall-clock span recorder the engine feeds.
// Nil-safe: a nil Tracer yields a nil (no-op) recorder.
func (t *Tracer) Recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// sampleHit reports whether this passing execution is the 1-in-N sample.
func (t *Tracer) sampleHit() bool {
	if t == nil || t.sampleN <= 0 {
		return false
	}
	return t.passes.Add(1)%t.sampleN == 0
}

// captureViolation writes the violating execution (always, up to the cap).
func (t *Tracer) captureViolation(worker int, path []int, ce *Counterexample) error {
	if t.violations.Load() >= MaxViolationCaptures {
		t.skipped.Add(1)
		return nil
	}
	if err := t.capture("violation", worker, path, ce); err != nil {
		return err
	}
	t.violations.Add(1)
	return nil
}

// captureSample writes one sampled passing execution.
func (t *Tracer) captureSample(worker int, path []int, ce *Counterexample) error {
	if err := t.capture("sample", worker, path, ce); err != nil {
		return err
	}
	t.samples.Add(1)
	return nil
}

func (t *Tracer) capture(kind string, worker int, path []int, ce *Counterexample) error {
	verdict := "ok"
	if !ce.Verdict.OK() {
		verdict = string(ce.Verdict.Violation)
	}
	x := &export.Execution{
		Meta: export.Meta{
			Kind:     "execution",
			Run:      t.runMeta,
			Worker:   worker,
			Path:     append([]int(nil), path...),
			Schedule: append([]int(nil), ce.Schedule...),
			Inputs:   append([]int64(nil), ce.Inputs...),
			Verdict:  verdict,
			Detail:   ce.Verdict.Detail,
		},
		Events: ce.Trace.Events(),
	}
	base := fmt.Sprintf("%s-%06d", kind, t.seq[kind].Add(1))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("explore: capture after tracer close")
	}
	// A full queue blocks here (bounded memory); the writer never takes
	// t.mu, so it keeps draining and the send always completes.
	t.work <- captureJob{base: base, x: x}
	return t.err()
}

// Close drains the capture queue, seals the run's wall-clock spans into
// spans-NNNNNN.jsonl (plus its Perfetto rendering), and refuses further
// captures. Close is idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	close(t.work)
	<-t.done
	if err := t.err(); err != nil {
		return err
	}
	spans := t.rec.Spans()
	if len(spans) == 0 {
		return nil
	}
	x := &export.Execution{
		Meta: export.Meta{
			Kind:   "spans",
			Run:    t.runMeta,
			Worker: -1,
		},
		Spans:        spans,
		DroppedSpans: t.rec.Dropped(),
	}
	base := fmt.Sprintf("spans-%06d", t.seq["spans"].Add(1))
	if err := export.WriteExecution(filepath.Join(t.dir, base+".jsonl"), x); err != nil {
		return err
	}
	return export.WritePerfetto(filepath.Join(t.dir, base+".perfetto.json"), x)
}

// TracerSummary reports what a Tracer captured.
type TracerSummary struct {
	Dir        string
	Violations int64 // violating executions written
	Samples    int64 // sampled passing executions written
	Skipped    int64 // violating executions beyond MaxViolationCaptures
	Spans      int   // wall-clock spans recorded so far
}

// Summary returns the capture counts (zero value on a nil Tracer).
func (t *Tracer) Summary() TracerSummary {
	if t == nil {
		return TracerSummary{}
	}
	return TracerSummary{
		Dir:        t.dir,
		Violations: t.violations.Load(),
		Samples:    t.samples.Load(),
		Skipped:    t.skipped.Load(),
		Spans:      len(t.rec.Spans()),
	}
}

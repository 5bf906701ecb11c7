// Package export turns recorded executions into trace files: a JSONL
// on-disk format ("trace/v1") that round-trips through Read back into
// events bit-for-bit, and a Chrome trace-event / Perfetto JSON rendering
// (perfetto.go) loadable in ui.perfetto.dev.
//
// A trace/v1 file is a sequence of JSON objects, one per line, each tagged
// with a "type" discriminator:
//
//	{"type":"meta", "meta":{...}}    exactly once, first line
//	{"type":"event","event":{...}}   one per simulator event, in order
//	{"type":"span", "span":{...}}    one per wall-clock span, in order
//	{"type":"end",  "events":N,"spans":M,"dropped_spans":D}
//
// The end record carries the record counts, so a truncated file — a crash
// mid-write, a lost final block — is detected on read instead of silently
// passing for a shorter execution.
//
// Every record is what encoding/json writes for it. Event records, nearly
// all of a capture, are written and read without reflection (eventline.go);
// the other records, and any event line not in the writer's canonical
// shape, go through encoding/json.
package export

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// Schema identifies the on-disk trace format; readers refuse other values.
const Schema = "trace/v1"

// Meta is the header of a trace/v1 file: everything needed to re-run the
// recorded execution (or to identify a spans-only recording).
type Meta struct {
	// Schema is always Schema ("trace/v1").
	Schema string `json:"schema"`
	// Kind is "execution" (events of one simulated run) or "spans"
	// (wall-clock spans of a whole exploration).
	Kind string `json:"kind"`
	// Run records the settings that produced the run as flat strings
	// (proto, f, t, n, fault, ...) — the same map the checkpoint manifest
	// and the -report Run section use, so a trace file alone suffices to
	// reconstruct its configuration.
	Run map[string]string `json:"run,omitempty"`
	// Worker is the engine worker that ran the execution (-1 when not
	// applicable).
	Worker int `json:"worker"`
	// Path is the choice path driving the execution (replay key).
	Path []int `json:"path,omitempty"`
	// Schedule is the sequence of process ids granted steps.
	Schedule []int `json:"schedule,omitempty"`
	// Inputs are the process input values.
	Inputs []int64 `json:"inputs,omitempty"`
	// Verdict is "ok" or the violated requirement ("consistency", ...).
	Verdict string `json:"verdict,omitempty"`
	// Detail is the human-readable violation explanation.
	Detail string `json:"detail,omitempty"`
}

// Execution is a fully parsed trace/v1 file.
type Execution struct {
	Meta   Meta
	Events []trace.Event
	Spans  []trace.Span
	// DroppedSpans is the number of spans the recorder's cap discarded
	// before export (the recording is complete when zero).
	DroppedSpans int64
}

// record is the one-line-per-record framing of the file.
type record struct {
	Type  string       `json:"type"`
	Meta  *Meta        `json:"meta,omitempty"`
	Event *trace.Event `json:"event,omitempty"`
	Span  *trace.Span  `json:"span,omitempty"`

	// end-record fields
	Events       int   `json:"events,omitempty"`
	Spans        int   `json:"spans,omitempty"`
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// ErrTruncated reports a trace/v1 file without a matching end record: the
// writer died (or was killed) before the trace was sealed.
var ErrTruncated = errors.New("export: trace file truncated (no matching end record)")

// Writer streams one trace/v1 file. The record sequence is enforced: Begin,
// any number of Event/Span, End. Writers are not safe for concurrent use.
type Writer struct {
	w       *bufio.Writer
	buf     []byte    // the event record being written, reused
	c       io.Closer // nil when wrapping a caller-owned io.Writer
	events  int
	spans   int
	dropped int64
	begun   bool
	ended   bool
	err     error
}

// NewWriter returns a writer streaming to w; the caller owns w's lifetime.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Create opens path for writing (truncating) and returns a writer that
// Close will flush and close. Nothing syncs the file: a file cut short by a
// crash lacks its end record, and Read refuses it with ErrTruncated.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	w := NewWriter(f)
	w.c = f
	return w, nil
}

func (w *Writer) emit(r *record) error {
	if w.err != nil {
		return w.err
	}
	data, err := json.Marshal(r)
	if err != nil {
		w.err = fmt.Errorf("export: %w", err)
		return w.err
	}
	return w.write(append(data, '\n'))
}

func (w *Writer) write(line []byte) error {
	if _, err := w.w.Write(line); err != nil {
		w.err = fmt.Errorf("export: %w", err)
	}
	return w.err
}

// Begin writes the meta header. It must be the first record.
func (w *Writer) Begin(m Meta) error {
	if w.begun {
		return errors.New("export: Begin called twice")
	}
	w.begun = true
	m.Schema = Schema
	if m.Kind == "" {
		m.Kind = "execution"
	}
	return w.emit(&record{Type: "meta", Meta: &m})
}

// Event appends one simulator event.
func (w *Writer) Event(e trace.Event) error {
	if !w.begun {
		return errors.New("export: Event before Begin")
	}
	w.events++
	if w.err != nil {
		return w.err
	}
	w.buf = appendEventRecord(w.buf[:0], &e)
	return w.write(w.buf)
}

// Span appends one wall-clock span.
func (w *Writer) Span(s trace.Span) error {
	if !w.begun {
		return errors.New("export: Span before Begin")
	}
	w.spans++
	return w.emit(&record{Type: "span", Span: &s})
}

// SetDropped records how many spans were discarded before export; the count
// is sealed into the end record.
func (w *Writer) SetDropped(n int64) { w.dropped = n }

// End seals the file with the end record and flushes. A file without a
// matching End fails Read with ErrTruncated.
func (w *Writer) End() error {
	if !w.begun {
		return errors.New("export: End before Begin")
	}
	if w.ended {
		return nil
	}
	w.ended = true
	if err := w.emit(&record{Type: "end", Events: w.events, Spans: w.spans, DroppedSpans: w.dropped}); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil && w.err == nil {
		w.err = fmt.Errorf("export: %w", err)
	}
	return w.err
}

// Close seals the file (if End was not yet called), flushes, and closes the
// underlying file when the writer owns one.
func (w *Writer) Close() error {
	err := w.End()
	if w.c != nil {
		if cerr := w.c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("export: %w", cerr)
		}
		w.c = nil
	}
	return err
}

// WriteExecution writes a complete execution as one trace/v1 file.
func WriteExecution(path string, x *Execution) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	if err := w.Begin(x.Meta); err != nil {
		w.Close() //nolint:errcheck // already failing
		return err
	}
	for _, e := range x.Events {
		if err := w.Event(e); err != nil {
			w.Close() //nolint:errcheck // already failing
			return err
		}
	}
	for _, s := range x.Spans {
		if err := w.Span(s); err != nil {
			w.Close() //nolint:errcheck // already failing
			return err
		}
	}
	w.SetDropped(x.DroppedSpans)
	return w.Close()
}

// Read parses a trace/v1 stream, verifying the header schema and the end
// record's counts. A stream without an end record returns ErrTruncated.
func Read(r io.Reader) (*Execution, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	x := &Execution{}
	sealed := false
	line := 0
	var e trace.Event
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if sealed {
			return nil, fmt.Errorf("export: line %d: record after end", line)
		}
		if parseEvent(sc.Bytes(), &e) {
			x.Events = append(x.Events, e)
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("export: line %d: %w", line, err)
		}
		switch rec.Type {
		case "meta":
			if line != 1 || rec.Meta == nil {
				return nil, fmt.Errorf("export: line %d: misplaced meta record", line)
			}
			if rec.Meta.Schema != Schema {
				return nil, fmt.Errorf("export: schema %q, want %q", rec.Meta.Schema, Schema)
			}
			x.Meta = *rec.Meta
		case "event":
			if rec.Event == nil {
				return nil, fmt.Errorf("export: line %d: event record without event", line)
			}
			x.Events = append(x.Events, *rec.Event)
		case "span":
			if rec.Span == nil {
				return nil, fmt.Errorf("export: line %d: span record without span", line)
			}
			x.Spans = append(x.Spans, *rec.Span)
		case "end":
			if rec.Events != len(x.Events) || rec.Spans != len(x.Spans) {
				return nil, fmt.Errorf("export: end record counts %d events/%d spans, file holds %d/%d",
					rec.Events, rec.Spans, len(x.Events), len(x.Spans))
			}
			x.DroppedSpans = rec.DroppedSpans
			sealed = true
		default:
			return nil, fmt.Errorf("export: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	if x.Meta.Schema == "" {
		return nil, errors.New("export: no meta record (not a trace/v1 file)")
	}
	if !sealed {
		return nil, ErrTruncated
	}
	return x, nil
}

// ReadFile parses the trace/v1 file at path.
func ReadFile(path string) (*Execution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	defer f.Close()
	x, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return x, nil
}

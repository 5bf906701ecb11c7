package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// The oracle: the reflecting trace/v1 writer and reader and the Perfetto
// renderer this package had before it wrote, read and rendered events
// directly. The codec must produce the oracle's bytes and read the
// oracle's executions. Its structs are copies carrying no methods, with
// basic types for the event's fields, so encoding/json reflects over them
// whatever methods the package's own types gain; words are formatted with
// fmt, as Word.String once did.

type oracleEvent struct {
	Index  int    `json:"i"`
	Kind   string `json:"kind"`
	Proc   int    `json:"proc"`
	Object int    `json:"obj,omitempty"`
	Exp    uint64 `json:"exp,omitempty"`
	New    uint64 `json:"new,omitempty"`
	Pre    uint64 `json:"pre,omitempty"`
	Post   uint64 `json:"post,omitempty"`
	Old    uint64 `json:"old,omitempty"`
	Fault  int    `json:"fault,omitempty"`
	Value  uint64 `json:"val,omitempty"`
}

type oracleMeta struct {
	Schema   string            `json:"schema"`
	Kind     string            `json:"kind"`
	Run      map[string]string `json:"run,omitempty"`
	Worker   int               `json:"worker"`
	Path     []int             `json:"path,omitempty"`
	Schedule []int             `json:"schedule,omitempty"`
	Inputs   []int64           `json:"inputs,omitempty"`
	Verdict  string            `json:"verdict,omitempty"`
	Detail   string            `json:"detail,omitempty"`
}

type oracleSpan struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Start int64          `json:"start_ns"`
	Dur   int64          `json:"dur_ns"`
	Args  map[string]any `json:"args,omitempty"`
}

type oracleRecord struct {
	Type  string       `json:"type"`
	Meta  *oracleMeta  `json:"meta,omitempty"`
	Event *oracleEvent `json:"event,omitempty"`
	Span  *oracleSpan  `json:"span,omitempty"`

	Events       int   `json:"events,omitempty"`
	Spans        int   `json:"spans,omitempty"`
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

func toOracleEvent(e trace.Event) oracleEvent {
	return oracleEvent{
		Index: e.Index, Kind: string(e.Kind), Proc: e.Proc, Object: e.Object,
		Exp: uint64(e.Exp), New: uint64(e.New), Pre: uint64(e.Pre), Post: uint64(e.Post), Old: uint64(e.Old),
		Fault: int(e.Fault), Value: uint64(e.Value),
	}
}

func fromOracleEvent(e oracleEvent) trace.Event {
	return trace.Event{
		Index: e.Index, Kind: trace.EventKind(e.Kind), Proc: e.Proc, Object: e.Object,
		Exp: word.Word(e.Exp), New: word.Word(e.New), Pre: word.Word(e.Pre), Post: word.Word(e.Post), Old: word.Word(e.Old),
		Fault: fault.Kind(e.Fault), Value: word.Word(e.Value),
	}
}

// oracleWrite is WriteExecution: the meta record, the events, the spans
// and the end record, each marshalled by encoding/json.
func oracleWrite(x *Execution) ([]byte, error) {
	var out []byte
	emit := func(r *oracleRecord) error {
		data, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		out = append(append(out, data...), '\n')
		return nil
	}
	m := oracleMeta(x.Meta)
	m.Schema = Schema
	if m.Kind == "" {
		m.Kind = "execution"
	}
	if err := emit(&oracleRecord{Type: "meta", Meta: &m}); err != nil {
		return out, err
	}
	for _, e := range x.Events {
		oe := toOracleEvent(e)
		if err := emit(&oracleRecord{Type: "event", Event: &oe}); err != nil {
			return out, err
		}
	}
	for _, s := range x.Spans {
		os := oracleSpan(s)
		if err := emit(&oracleRecord{Type: "span", Span: &os}); err != nil {
			return out, err
		}
	}
	return out, emit(&oracleRecord{Type: "end", Events: len(x.Events), Spans: len(x.Spans), DroppedSpans: x.DroppedSpans})
}

// oracleRead is Read with encoding/json decoding every line.
func oracleRead(r io.Reader) (*Execution, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	x := &Execution{}
	sealed := false
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if sealed {
			return nil, fmt.Errorf("export: line %d: record after end", line)
		}
		var rec oracleRecord
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
			x.Meta = Meta(*rec.Meta)
		case "event":
			if rec.Event == nil {
				return nil, fmt.Errorf("export: line %d: event record without event", line)
			}
			x.Events = append(x.Events, fromOracleEvent(*rec.Event))
		case "span":
			if rec.Span == nil {
				return nil, fmt.Errorf("export: line %d: span record without span", line)
			}
			x.Spans = append(x.Spans, trace.Span(*rec.Span))
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

type oraclePerfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type oraclePerfettoFile struct {
	TraceEvents     []oraclePerfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string                `json:"displayTimeUnit"`
}

// oraclePerfetto is Perfetto: one map of args per event, fmt for names,
// and one reflecting encoder over the whole document.
func oraclePerfetto(x *Execution) ([]byte, error) {
	pid := x.Meta.Worker
	if pid < 0 {
		pid = 0
	}
	f := oraclePerfettoFile{DisplayTimeUnit: "ms", TraceEvents: []oraclePerfettoEvent{}}
	meta := func(p, t int, name, val string) {
		f.TraceEvents = append(f.TraceEvents, oraclePerfettoEvent{Name: name, Ph: "M", PID: p, TID: t,
			Args: map[string]any{"name": val}})
	}
	if len(x.Events) > 0 {
		meta(pid, 0, "process_name", fmt.Sprintf("worker %d", pid))
		procs := 0
		for _, e := range x.Events {
			if e.Proc+1 > procs {
				procs = e.Proc + 1
			}
		}
		for p := 0; p < procs; p++ {
			meta(pid, p, "thread_name", fmt.Sprintf("p%d", p))
		}
		advTID := procs
		haveAdv := false
		for _, e := range x.Events {
			ts := int64(e.Index) * stepUS
			tid := e.Proc
			if e.Kind == trace.EventCorrupt {
				tid = advTID
				haveAdv = true
			}
			f.TraceEvents = append(f.TraceEvents, oraclePerfettoEvent{
				Name: oracleSliceName(e), Cat: string(e.Kind), Ph: "X", TS: ts, Dur: sliceUS,
				PID: pid, TID: tid, Args: oracleSliceArgs(e),
			})
			if e.Fault != fault.None {
				f.TraceEvents = append(f.TraceEvents, oraclePerfettoEvent{
					Name: "FAULT " + e.Fault.String(), Cat: "fault", Ph: "i", TS: ts,
					PID: pid, TID: tid, S: "p",
					Args: map[string]any{"step": e.Index, "object": e.Object},
				})
			}
		}
		if haveAdv {
			meta(pid, advTID, "thread_name", "adversary")
		}
	}
	const engineLane = 1 << 20
	workers := map[int]bool{}
	for _, s := range x.Spans {
		pid, name := s.PID, fmt.Sprintf("worker %d", s.PID)
		if pid < 0 {
			pid, name = engineLane, "engine"
		}
		if !workers[pid] {
			workers[pid] = true
			meta(pid, 0, "process_name", name)
		}
		tid := s.TID
		if tid < 0 {
			tid = 0
		}
		dur := s.Dur / 1000
		if dur < 1 {
			dur = 1
		}
		f.TraceEvents = append(f.TraceEvents, oraclePerfettoEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", TS: s.Start / 1000, Dur: dur, PID: pid, TID: tid, Args: s.Args,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&f); err != nil {
		return nil, fmt.Errorf("export: perfetto: %w", err)
	}
	return buf.Bytes(), nil
}

func oracleWord(w word.Word) string {
	switch {
	case w.IsBottom():
		return "⊥"
	case w.Stage() == 0:
		return fmt.Sprintf("%d", w.Value())
	default:
		return fmt.Sprintf("⟨%d,%d⟩", w.Value(), w.Stage())
	}
}

func oracleSliceName(e trace.Event) string {
	switch e.Kind {
	case trace.EventCAS:
		name := fmt.Sprintf("CAS(O%d, %s→%s)", e.Object, oracleWord(e.Exp), oracleWord(e.New))
		if e.Fault != fault.None {
			name += " ⚡" + e.Fault.String()
		}
		return name
	case trace.EventRead:
		return fmt.Sprintf("Read(R%d)", e.Object)
	case trace.EventWrite:
		return fmt.Sprintf("Write(R%d, %s)", e.Object, oracleWord(e.Value))
	case trace.EventDecide:
		return fmt.Sprintf("DECIDE %s", oracleWord(e.Value))
	case trace.EventCorrupt:
		return fmt.Sprintf("DATA-FAULT O%d ← %s", e.Object, oracleWord(e.Value))
	case trace.EventHalt:
		return "HALT"
	default:
		return string(e.Kind)
	}
}

func oracleSliceArgs(e trace.Event) map[string]any {
	args := map[string]any{"step": e.Index, "proc": e.Proc}
	switch e.Kind {
	case trace.EventCAS:
		args["object"] = e.Object
		args["exp"] = oracleWord(e.Exp)
		args["new"] = oracleWord(e.New)
		args["observed"] = oracleWord(e.Pre)
		args["wrote"] = oracleWord(e.Post)
		args["old"] = oracleWord(e.Old)
		args["fault"] = e.Fault.String()
	case trace.EventRead, trace.EventWrite, trace.EventCorrupt:
		args["object"] = e.Object
		args["value"] = oracleWord(e.Value)
	case trace.EventDecide:
		args["decision"] = oracleWord(e.Value)
	}
	return args
}

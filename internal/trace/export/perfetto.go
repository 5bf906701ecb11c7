package export

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// Chrome trace-event JSON (the format Perfetto and chrome://tracing load):
// an object with a "traceEvents" array of phase-tagged events. Simulated
// executions have no wall clock, so each atomic step is rendered as a
// fixed-width slice at ts = step·stepUS — the timeline then reads as the
// schedule itself, one lane per process, with fault injections as flow
// marks. Wall-clock spans (engine workers, checkpoints) use their real
// timestamps, one lane per worker.
const (
	stepUS  = 10 // microseconds per simulated atomic step
	sliceUS = 8  // rendered slice width (gap makes step boundaries visible)
)

// perfettoEvent is one traceEvents entry. Only wall-clock span slices are
// rendered through it: their args are arbitrary values, so encoding/json
// writes each such element. Everything else is appended directly, byte for
// byte as encoding/json would write this struct.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Perfetto renders the execution as Chrome trace-event JSON: pid = engine
// worker, tid = process, one complete ("X") slice per atomic step whose
// args carry the CAS arguments (exp), the observed register content
// (observed = pre), the written content (wrote = post), the returned old
// value, and the fault kind; fault injections additionally emit an instant
// event so they stand out on the timeline. The document is compact, keys
// in encoding/json's order, followed by a newline: Perfetto parses it the
// same as an indented one, and the files are ~40% smaller.
func Perfetto(w io.Writer, x *Execution) error {
	pid := max(x.Meta.Worker, 0)
	b := make([]byte, 0, 64+len(x.Events)*perfettoEventBytes)
	b = append(b, `{"traceEvents":[`...)

	if len(x.Events) > 0 {
		b = appendLaneName(b, pid, 0, "process_name", "worker ", pid)
		procs := 0
		for _, e := range x.Events {
			procs = max(procs, e.Proc+1)
		}
		for p := 0; p < procs; p++ {
			b = appendLaneName(b, pid, p, "thread_name", "p", p)
		}
		// Corruption events belong to no process; give the adversary its
		// own lane after the process lanes.
		advTID := procs
		haveAdv := false
		for i := range x.Events {
			e := &x.Events[i]
			tid := e.Proc
			if e.Kind == trace.EventCorrupt {
				tid = advTID
				haveAdv = true
			}
			b = appendSlice(b, e, pid, tid)
		}
		if haveAdv {
			b = appendLaneName(b, pid, advTID, "thread_name", "adversary", -1)
		}
	}

	// Wall-clock spans: pid = worker (engine-level spans such as checkpoint
	// writes carry pid -1 and get their own "engine" lane), tid = the
	// span's sub-lane.
	const engineLane = 1 << 20 // pids must be non-negative for Perfetto
	workers := map[int]bool{}
	for _, s := range x.Spans {
		pid, name, n := s.PID, "worker ", s.PID
		if pid < 0 {
			pid, name, n = engineLane, "engine", -1
		}
		if !workers[pid] {
			workers[pid] = true
			b = appendLaneName(b, pid, 0, "process_name", name, n)
		}
		data, err := json.Marshal(perfettoEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   s.Start / 1000, // ns → µs
			Dur:  max(s.Dur/1000, 1),
			PID:  pid,
			TID:  max(s.TID, 0),
			Args: s.Args,
		})
		if err != nil {
			return fmt.Errorf("export: perfetto: %w", err)
		}
		b = append(appendComma(b), data...)
	}

	b = append(b, `],"displayTimeUnit":"ms"}`+"\n"...)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("export: perfetto: %w", err)
	}
	return nil
}

// perfettoEventBytes sizes Perfetto's buffer: about what one step's slice
// (and its share of fault instants) takes, so a capture's rendering needs
// one allocation or a few, not one per event.
const perfettoEventBytes = 320

// appendComma separates a traceEvents element from the one before it.
func appendComma(b []byte) []byte {
	if b[len(b)-1] == '[' {
		return b
	}
	return append(b, ',')
}

// appendLaneName appends a metadata ("M") event naming a lane: name is
// process_name or thread_name, and the lane is called label followed by n
// when n ≥ 0, or label alone.
func appendLaneName(b []byte, pid, tid int, name, label string, n int) []byte {
	b = append(appendComma(b), `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"M","ts":0,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":"`...)
	b = append(b, label...)
	if n >= 0 {
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, `"}}`...)
}

// appendSlice appends the complete ("X") slice of one atomic step, and its
// instant ("i") mark when a fault fired. Argument keys are in bytewise
// order, as encoding/json writes a map. The fixed labels, numbers, words
// and fault names need no escaping; the event kind is escaped.
func appendSlice(b []byte, e *trace.Event, pid, tid int) []byte {
	ts := int64(e.Index) * stepUS
	b = append(appendComma(b), `{"name":`...)
	b = appendSliceName(b, e)
	if e.Kind != "" {
		b = append(b, `,"cat":`...)
		b = trace.AppendJSONString(b, string(e.Kind))
	}
	b = append(b, `,"ph":"X","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, sliceUS, 10)
	b = appendLane(b, pid, tid)
	b = append(b, `,"args":{`...)
	switch e.Kind {
	case trace.EventCAS:
		b = appendQuotedWord(b, `"exp":`, e.Exp)
		b = append(b, `,"fault":"`...)
		b = append(b, e.Fault.String()...)
		b = append(b, '"')
		b = appendQuotedWord(b, `,"new":`, e.New)
		b = appendInt(b, `,"object":`, e.Object)
		b = appendQuotedWord(b, `,"observed":`, e.Pre)
		b = appendQuotedWord(b, `,"old":`, e.Old)
		b = appendInt(b, `,"proc":`, e.Proc)
		b = appendInt(b, `,"step":`, e.Index)
		b = appendQuotedWord(b, `,"wrote":`, e.Post)
	case trace.EventRead, trace.EventWrite, trace.EventCorrupt:
		b = appendInt(b, `"object":`, e.Object)
		b = appendInt(b, `,"proc":`, e.Proc)
		b = appendInt(b, `,"step":`, e.Index)
		b = appendQuotedWord(b, `,"value":`, e.Value)
	case trace.EventDecide:
		b = appendQuotedWord(b, `"decision":`, e.Value)
		b = appendInt(b, `,"proc":`, e.Proc)
		b = appendInt(b, `,"step":`, e.Index)
	default:
		b = appendInt(b, `"proc":`, e.Proc)
		b = appendInt(b, `,"step":`, e.Index)
	}
	b = append(b, "}}"...)
	if e.Fault == fault.None {
		return b
	}
	b = append(b, `,{"name":"FAULT `...)
	b = append(b, e.Fault.String()...)
	b = append(b, `","cat":"fault","ph":"i","ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = appendLane(b, pid, tid)
	b = appendInt(b, `,"s":"p","args":{"object":`, e.Object)
	b = appendInt(b, `,"step":`, e.Index)
	return append(b, "}}"...)
}

// appendSliceName appends the quoted label of one atomic step.
func appendSliceName(b []byte, e *trace.Event) []byte {
	switch e.Kind {
	case trace.EventCAS:
		b = appendInt(b, `"CAS(O`, e.Object)
		b = e.Exp.AppendTo(append(b, ", "...))
		b = e.New.AppendTo(append(b, "→"...))
		b = append(b, ')')
		if e.Fault != fault.None {
			b = append(b, " ⚡"...)
			b = append(b, e.Fault.String()...)
		}
	case trace.EventRead:
		b = appendInt(b, `"Read(R`, e.Object)
		b = append(b, ')')
	case trace.EventWrite:
		b = appendInt(b, `"Write(R`, e.Object)
		b = e.Value.AppendTo(append(b, ", "...))
		b = append(b, ')')
	case trace.EventDecide:
		b = e.Value.AppendTo(append(b, `"DECIDE `...))
	case trace.EventCorrupt:
		b = appendInt(b, `"DATA-FAULT O`, e.Object)
		b = e.Value.AppendTo(append(b, " ← "...))
	case trace.EventHalt:
		b = append(b, `"HALT`...)
	default:
		return trace.AppendJSONString(b, string(e.Kind))
	}
	return append(b, '"')
}

// appendLane appends an event's pid and tid keys.
func appendLane(b []byte, pid, tid int) []byte {
	b = appendInt(b, `,"pid":`, pid)
	return appendInt(b, `,"tid":`, tid)
}

// appendInt appends prefix and n in decimal.
func appendInt(b []byte, prefix string, n int) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(n), 10)
}

// appendQuotedWord appends key and w's String form, quoted.
func appendQuotedWord(b []byte, key string, w word.Word) []byte {
	b = append(append(b, key...), '"')
	return append(w.AppendTo(b), '"')
}

// WritePerfetto renders the execution as a Perfetto JSON file at path.
func WritePerfetto(path string, x *Execution) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if err := Perfetto(f, x); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

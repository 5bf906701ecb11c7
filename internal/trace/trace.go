// Package trace records executions of the simulated shared-memory system as
// a sequence of atomic-step events, per the execution model of Section 2 of
// the paper. Traces serialize to JSON for counterexample storage and replay,
// and render to a human-readable form for CLI output.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/word"
)

// EventKind discriminates trace events.
type EventKind string

const (
	// EventCAS is a CAS operation step on a shared object.
	EventCAS EventKind = "cas"
	// EventRead is a read step on a read/write register.
	EventRead EventKind = "read"
	// EventWrite is a write step on a read/write register.
	EventWrite EventKind = "write"
	// EventDecide records a process returning its decision value.
	EventDecide EventKind = "decide"
	// EventCorrupt records a data fault: the content of an object replaced
	// outside any operation (the model of Afek et al., Section 3.1).
	EventCorrupt EventKind = "corrupt"
	// EventHalt records the adversary halting a process (covering
	// arguments, Section 5.2).
	EventHalt EventKind = "halt"
)

// Event is one atomic step of an execution.
type Event struct {
	Index  int       `json:"i"`
	Kind   EventKind `json:"kind"`
	Proc   int       `json:"proc"`
	Object int       `json:"obj,omitempty"`

	// CAS fields: exp/new arguments, register content before (pre) and
	// after (post) the step, and the returned old value.
	Exp  word.Word `json:"exp,omitempty"`
	New  word.Word `json:"new,omitempty"`
	Pre  word.Word `json:"pre,omitempty"`
	Post word.Word `json:"post,omitempty"`
	Old  word.Word `json:"old,omitempty"`

	// Fault is the fault kind that fired during this step (None if the
	// step followed its specification).
	Fault fault.Kind `json:"fault,omitempty"`

	// Value carries the decision (decide events), written value (write
	// and corrupt events), or read result (read events).
	Value word.Word `json:"val,omitempty"`
}

// Wrote reports whether the step changed the register content.
func (e Event) Wrote() bool { return e.Pre != e.Post }

// String renders the event in one line.
func (e Event) String() string {
	switch e.Kind {
	case EventCAS:
		mark := ""
		if e.Fault != fault.None {
			mark = fmt.Sprintf(" FAULT[%s]", e.Fault)
		}
		return fmt.Sprintf("#%d p%d CAS(O%d, exp=%s, new=%s) -> old=%s (pre=%s post=%s)%s",
			e.Index, e.Proc, e.Object, e.Exp, e.New, e.Old, e.Pre, e.Post, mark)
	case EventRead:
		return fmt.Sprintf("#%d p%d Read(R%d) -> %s", e.Index, e.Proc, e.Object, e.Value)
	case EventWrite:
		return fmt.Sprintf("#%d p%d Write(R%d, %s)", e.Index, e.Proc, e.Object, e.Value)
	case EventDecide:
		return fmt.Sprintf("#%d p%d DECIDE %s", e.Index, e.Proc, e.Value)
	case EventCorrupt:
		return fmt.Sprintf("#%d DATA-FAULT O%d <- %s (pre=%s)", e.Index, e.Object, e.Value, e.Pre)
	case EventHalt:
		return fmt.Sprintf("#%d p%d HALTED by adversary", e.Index, e.Proc)
	default:
		return fmt.Sprintf("#%d p%d %s", e.Index, e.Proc, e.Kind)
	}
}

// Log accumulates the events of one execution in order.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event, assigning its index.
func (l *Log) Append(e Event) {
	e.Index = len(l.events)
	l.events = append(l.events, e)
}

// Events returns the recorded events in execution order. The returned slice
// is owned by the log and must not be modified.
func (l *Log) Events() []Event { return l.events }

// Reset empties the log, retaining its capacity so replay loops can reuse
// one allocation across executions.
func (l *Log) Reset() { l.events = l.events[:0] }

// Truncate drops every event after the first n, retaining capacity: a
// replay rewound to an earlier step keeps the events recorded before it.
func (l *Log) Truncate(n int) { l.events = l.events[:n] }

// Clone returns an independent copy of the log. Counterexamples retain it,
// while the original keeps being reset and reused by the replay loop.
func (l *Log) Clone() *Log {
	return &Log{events: append([]Event(nil), l.events...)}
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Faults returns the events during which a functional fault fired.
func (l *Log) Faults() []Event {
	var out []Event
	for _, e := range l.events {
		if e.Fault != fault.None {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MarshalJSON serializes the log as a JSON array of events, encoded by
// AppendEvent (null for a log that never held one, as encoding/json
// marshals a nil slice).
func (l *Log) MarshalJSON() ([]byte, error) {
	if l.events == nil {
		return []byte("null"), nil
	}
	b := append(make([]byte, 0, 2+len(l.events)*192), '[')
	for i := range l.events {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendEvent(b, &l.events[i])
	}
	return append(b, ']'), nil
}

// UnmarshalJSON restores a log from its JSON form.
func (l *Log) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, &l.events) }

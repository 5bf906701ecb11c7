package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level grades event severity. The log drops events below its minimum
// level before doing any work of its own, but a caller's arguments are
// built before Emit runs: a fields map literal allocates whatever the
// level. Hot-path instrumentation (per-prune, per-donation) therefore
// checks Enabled first and builds its fields only when the event is kept.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the lower-case level name.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel converts a level name to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn":
		return Warn, nil
	case "error":
		return Error, nil
	default:
		return 0, fmt.Errorf("obs: unknown event level %q (debug|info|warn|error)", s)
	}
}

// Event is one JSONL record of the run event log. T is the monotonic time
// since the log was created — wall-clock-free, so two events always order
// correctly even across clock adjustments.
type Event struct {
	T      int64          `json:"t_ns"`
	Level  string         `json:"level"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Log is a run-scoped structured event log: one JSON object per line,
// levels, monotonic timestamps, and per-type counts for the final report.
// All methods are safe for concurrent use and safe on a nil *Log (they do
// nothing), so instrumentation threads through unconditionally.
type Log struct {
	mu     sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	min    Level
	start  time.Time
	counts map[string]int64
	err    error
}

// NewLog returns a log writing JSONL records at or above min to w.
func NewLog(w io.Writer, min Level) *Log {
	bw := bufio.NewWriter(w)
	return &Log{
		w:      bw,
		enc:    json.NewEncoder(bw),
		min:    min,
		start:  time.Now(),
		counts: make(map[string]int64),
	}
}

// Enabled reports whether events at the given level would be written.
func (l *Log) Enabled(level Level) bool { return l != nil && level >= l.min }

// Emit writes one event. fields may be nil; values must be JSON-encodable
// (the standard scalar/slice/map types the callers use). Events below the
// log's minimum level are dropped without allocation beyond the call —
// building fields is the caller's, see Level.
func (l *Log) Emit(level Level, typ string, fields map[string]any) {
	if !l.Enabled(level) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Stamped under the lock, so lines are in timestamp order.
	e := Event{
		T:      time.Since(l.start).Nanoseconds(),
		Level:  level.String(),
		Type:   typ,
		Fields: fields,
	}
	l.counts[typ]++
	if l.err == nil {
		l.err = l.enc.Encode(&e)
	}
	// Info and above are lifecycle events, rare by design; writing them
	// through at once lets a reader follow a live run, and leaves a killed
	// process's log showing how far it got. Debug events stay buffered.
	if l.err == nil && level >= Info {
		l.err = l.w.Flush()
	}
}

// Counts returns a copy of the per-type counts of events written so far.
// Nil on a nil log.
func (l *Log) Counts() map[string]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// Flush drains the buffer and returns the first write or encode error the
// log has seen, if any.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

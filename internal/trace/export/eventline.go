package export

import (
	"bytes"
	"math"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// The event records of a trace/v1 file are nearly all of its lines, so the
// writer and the reader handle them without reflection. The writer appends
// eventPrefix, trace.AppendEvent's object and eventSuffix: the bytes
// encoding/json writes for the record. The reader parses a line of exactly
// that shape directly and hands every other line to encoding/json, so the
// files accepted and the values read are encoding/json's.
const (
	eventPrefix = `{"type":"event","event":`
	eventSuffix = "}\n"
)

// appendEventRecord appends e's record line.
func appendEventRecord(b []byte, e *trace.Event) []byte {
	b = append(b, eventPrefix...)
	b = trace.AppendEvent(b, e)
	return append(b, eventSuffix...)
}

// eventFields are the optional keys of an event object in the order
// trace.AppendEvent writes them, after the required i, kind and proc.
var eventFields = [...]string{`"obj":`, `"exp":`, `"new":`, `"pre":`, `"post":`, `"old":`, `"fault":`, `"val":`}

// parseEvent decodes a canonical event line into e: eventPrefix, then
// {"i":N,"kind":"K","proc":N followed by any of eventFields in their order,
// each at most once, then "}}" and the end of the line. Numbers are unsigned
// decimals without a leading zero that fit their field, and the kind is one
// of trace's event kinds. It reports false for any other line, leaving e in
// an unspecified state; such a line may still be valid JSON, and Read
// decodes it with encoding/json.
func parseEvent(line []byte, e *trace.Event) bool {
	p := eventParser{b: line}
	*e = trace.Event{}
	if !p.lit(eventPrefix+`{"i":`) || !p.int(&e.Index) || !p.lit(`,"kind":`) || !p.kind(&e.Kind) ||
		!p.lit(`,"proc":`) || !p.int(&e.Proc) {
		return false
	}
	next := 0 // eventFields before next are behind the cursor
	for p.lit(",") {
		i := next
		for i < len(eventFields) && !p.lit(eventFields[i]) {
			i++
		}
		if i == len(eventFields) {
			return false
		}
		next = i + 1
		var ok bool
		switch i {
		case 0:
			ok = p.int(&e.Object)
		case 1:
			ok = p.word(&e.Exp)
		case 2:
			ok = p.word(&e.New)
		case 3:
			ok = p.word(&e.Pre)
		case 4:
			ok = p.word(&e.Post)
		case 5:
			ok = p.word(&e.Old)
		case 6:
			var k int
			ok = p.int(&k)
			e.Fault = fault.Kind(k)
		case 7:
			ok = p.word(&e.Value)
		}
		if !ok {
			return false
		}
	}
	return p.lit("}}") && len(p.b) == 0
}

// eventParser is a cursor over the bytes of one event line.
type eventParser struct{ b []byte }

// lit consumes s if the line continues with it.
func (p *eventParser) lit(s string) bool {
	if len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// uint consumes an unsigned decimal no greater than max (math.MaxInt or
// math.MaxUint64), which must be followed by ',' or '}': a fraction, an
// exponent or a sign is not canonical.
func (p *eventParser) uint(max uint64) (uint64, bool) {
	i, n := 0, uint64(0)
	for ; i < len(p.b) && '0' <= p.b[i] && p.b[i] <= '9'; i++ {
		d := uint64(p.b[i] - '0')
		if i >= 18 && n > (max-d)/10 { // 18 digits fit either max
			return 0, false
		}
		n = n*10 + d
	}
	if i == 0 || i > 1 && p.b[0] == '0' || i == len(p.b) || p.b[i] != ',' && p.b[i] != '}' {
		return 0, false
	}
	p.b = p.b[i:]
	return n, true
}

func (p *eventParser) int(v *int) bool {
	n, ok := p.uint(math.MaxInt)
	*v = int(n)
	return ok
}

func (p *eventParser) word(w *word.Word) bool {
	n, ok := p.uint(math.MaxUint64)
	*w = word.Word(n)
	return ok
}

// kind consumes a quoted event kind naming one of trace's kinds, which need
// no escape and are returned without allocating.
func (p *eventParser) kind(k *trace.EventKind) bool {
	if len(p.b) == 0 || p.b[0] != '"' {
		return false
	}
	end := bytes.IndexByte(p.b[1:], '"') + 1 // the closing quote
	if end == 0 {
		return false
	}
	switch string(p.b[1:end]) {
	case string(trace.EventCAS):
		*k = trace.EventCAS
	case string(trace.EventRead):
		*k = trace.EventRead
	case string(trace.EventWrite):
		*k = trace.EventWrite
	case string(trace.EventDecide):
		*k = trace.EventDecide
	case string(trace.EventCorrupt):
		*k = trace.EventCorrupt
	case string(trace.EventHalt):
		*k = trace.EventHalt
	default:
		return false
	}
	p.b = p.b[end+1:]
	return true
}

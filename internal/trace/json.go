package trace

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/fault"
	"repro/internal/word"
)

// AppendEvent appends e as a JSON object, byte for byte as encoding/json
// marshals an Event: keys in field order (i, kind, proc, obj, exp, new,
// pre, post, old, fault, val), a zero obj, word or fault omitted, words as
// unsigned decimals. The trace/v1 writer and Log.MarshalJSON both encode
// events through it.
func AppendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, int64(e.Index), 10)
	b = append(b, `,"kind":`...)
	b = AppendJSONString(b, string(e.Kind))
	b = append(b, `,"proc":`...)
	b = strconv.AppendInt(b, int64(e.Proc), 10)
	if e.Object != 0 {
		b = append(b, `,"obj":`...)
		b = strconv.AppendInt(b, int64(e.Object), 10)
	}
	b = appendWord(b, `,"exp":`, e.Exp)
	b = appendWord(b, `,"new":`, e.New)
	b = appendWord(b, `,"pre":`, e.Pre)
	b = appendWord(b, `,"post":`, e.Post)
	b = appendWord(b, `,"old":`, e.Old)
	if e.Fault != fault.None {
		b = append(b, `,"fault":`...)
		b = strconv.AppendInt(b, int64(e.Fault), 10)
	}
	b = appendWord(b, `,"val":`, e.Value)
	return append(b, '}')
}

// appendWord appends key and w unless w is zero (omitempty).
func appendWord(b []byte, key string, w word.Word) []byte {
	if w == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), uint64(w), 10)
}

// AppendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes it: \" \\ \b \f \n \r \t; other control bytes and
// <, > and & as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte
// of invalid UTF-8 as \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

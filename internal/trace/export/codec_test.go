package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// The direct codec (eventline.go, perfetto.go, trace.AppendEvent) is held
// to the reflecting oracle in oracle_test.go and to golden captures the
// reflecting code wrote (testdata): the same bytes out, the same
// executions and errors in.

// tricky holds every kind of byte encoding/json escapes in a string:
// quotes, backslashes, HTML characters, control bytes, U+2028, U+2029 and
// invalid UTF-8, among characters it leaves alone.
const tricky = "quote \" backslash \x5c lt < gt > amp & ctl \x00\x01\x08\x0c\n\r\t\x1f del \x7f " +
	"ls \xe2\x80\xa8 ps \xe2\x80\xa9 bad \xff\xfe cut \xe2\x80 é ⊥ ⟨1,2⟩"

// codecWords covers ⊥, plain values, pairs with stages, the extremes of a
// packed pair, and bit patterns no protocol writes.
var codecWords = []word.Word{
	word.Bottom, word.FromValue(0), word.FromValue(7), word.Pack(7, 2), word.Pack(10, 12),
	word.Pack(word.MaxValue, word.MaxStage), 1, math.MaxUint64,
}

// codecCases are the executions of the table test.
func codecCases() map[string]*Execution {
	var events []trace.Event
	add := func(e trace.Event) {
		e.Index = len(events)
		events = append(events, e)
	}
	for k := fault.Kind(-1); k <= fault.Nonresponsive+3; k++ {
		for i, w := range codecWords {
			add(trace.Event{Kind: trace.EventCAS, Proc: i % 4, Object: i % 3, Exp: w,
				New: codecWords[(i+1)%len(codecWords)], Pre: w, Post: codecWords[(i+2)%len(codecWords)],
				Old: w, Fault: k})
		}
	}
	for i, w := range codecWords {
		add(trace.Event{Kind: trace.EventRead, Proc: 1, Object: i % 2, Value: w})
		add(trace.Event{Kind: trace.EventWrite, Proc: 2, Object: i % 2, Value: w})
		add(trace.Event{Kind: trace.EventDecide, Proc: 3, Value: w})
		add(trace.Event{Kind: trace.EventCorrupt, Object: i % 3, Value: w, Pre: codecWords[(i+3)%len(codecWords)]})
	}
	add(trace.Event{Kind: trace.EventHalt, Proc: 2})
	add(trace.Event{Kind: "", Proc: 1})
	add(trace.Event{Kind: "custom<kind>", Proc: 0, Value: word.FromValue(3)})
	add(trace.Event{Kind: trace.EventKind(tricky), Proc: 1, Object: 1, Fault: fault.Silent})
	add(trace.Event{Kind: trace.EventDecide, Proc: -1, Value: word.FromValue(1)})
	add(trace.Event{Kind: trace.EventCAS, Proc: 0, Object: -2, Exp: 5})
	events = append(events, trace.Event{Index: -4, Kind: trace.EventRead}, trace.Event{Index: 1 << 40, Kind: trace.EventHalt})

	spans := []trace.Span{
		{Name: "task", Cat: "worker", PID: 0, TID: -1, Start: 155640, Dur: 4198345,
			Args: map[string]any{"executions": 394, "root_depth": 0}},
		{Name: "checkpoint", Cat: "checkpoint", PID: -1, TID: -1, Start: 2_000_000, Dur: 500,
			Args: map[string]any{"bytes": int64(1) << 40, "final": true, "dir": tricky}},
		{Name: tricky, PID: 3, TID: 2, Start: 999, Dur: 0},
		{Name: "run", Cat: tricky, PID: 0, TID: 0, Start: -5000, Dur: 1 << 50,
			Args: map[string]any{"ok": false, "n": -7, "s": "", "big": int64(math.MaxInt64)}},
	}
	return map[string]*Execution{
		"empty": {},
		"events": {
			Meta: Meta{Kind: "execution", Run: map[string]string{"proto": "figure3", "f": "2", tricky: tricky},
				Worker: 2, Path: []int{0, 1, 2}, Schedule: []int{0, 1, 1}, Inputs: []int64{10, 11, -3},
				Verdict: "consistency", Detail: tricky},
			Events: events,
		},
		"negative worker": {
			Meta:   Meta{Worker: -1, Verdict: "ok"},
			Events: events[len(events)-40:],
		},
		"spans": {
			Meta:         Meta{Kind: "spans", Worker: -1, Run: map[string]string{"dedup": "true"}},
			Spans:        spans,
			DroppedSpans: 7,
		},
		"events and spans": {
			Meta:         Meta{Worker: 1, Detail: "<&>"},
			Events:       events[:30],
			Spans:        spans,
			DroppedSpans: 1,
		},
	}
}

// encode writes x through the streaming writer into memory.
func encode(t testing.TB, x *Execution) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(x.Meta); err != nil {
		t.Fatal(err)
	}
	for _, e := range x.Events {
		if err := w.Event(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range x.Spans {
		if err := w.Span(s); err != nil {
			t.Fatal(err)
		}
	}
	w.SetDropped(x.DroppedSpans)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncodeMatchesOracle holds the writer and the renderer of x to the
// oracle's bytes.
func checkEncodeMatchesOracle(t *testing.T, x *Execution) {
	t.Helper()
	want, err := oracleWrite(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(t, x); !bytes.Equal(got, want) {
		t.Errorf("writer:\n got %q\nwant %q", got, want)
	}
	wantP, err := oraclePerfetto(x)
	if err != nil {
		t.Fatal(err)
	}
	var gotP bytes.Buffer
	if err := Perfetto(&gotP, x); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotP.Bytes(), wantP) {
		t.Errorf("perfetto:\n got %q\nwant %q", gotP.Bytes(), wantP)
	}
}

// checkReadMatchesOracle holds Read to the oracle on data: both succeed
// with equal executions, or both fail with the same error.
func checkReadMatchesOracle(t *testing.T, data []byte) *Execution {
	t.Helper()
	got, err := Read(bytes.NewReader(data))
	want, werr := oracleRead(bytes.NewReader(data))
	if (err == nil) != (werr == nil) || err != nil && !sameError(err, werr) {
		t.Fatalf("Read error %v, oracle %v, on %q", err, werr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Read:\n got %+v\nwant %+v\non %q", got, want, data)
	}
	return got
}

// sameError reports whether Read's error err is the oracle's error want. A
// value of the wrong JSON type is reported with the Go types it was decoded
// into, which are the oracle's own copies there, so for such an error the
// line, the value, its offset and the field's path must agree instead.
func sameError(err, want error) bool {
	var te, tw *json.UnmarshalTypeError
	if errors.As(err, &te) && errors.As(want, &tw) {
		line, _, _ := strings.Cut(err.Error(), "json: ")
		wantLine, _, _ := strings.Cut(want.Error(), "json: ")
		return line == wantLine && te.Value == tw.Value && te.Offset == tw.Offset && te.Field == tw.Field
	}
	return err.Error() == want.Error()
}

// TestCodecMatchesOracle: over every event and fault kind, words with
// stages, zero and non-zero optional fields, negative workers and lanes,
// run maps, strings needing every escape, spans with int, int64, bool and
// string args and dropped spans, the writer (streaming and WriteExecution)
// and the Perfetto renderer produce the oracle's bytes, Read returns the
// oracle's execution, and Log.MarshalJSON encoding/json's array.
func TestCodecMatchesOracle(t *testing.T) {
	for name, x := range codecCases() {
		t.Run(name, func(t *testing.T) {
			checkEncodeMatchesOracle(t, x)
			want, err := oracleWrite(x)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "x.jsonl")
			if err := WriteExecution(path, x); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("WriteExecution wrote %q (%v), want %q", got, err, want)
			}
			y := checkReadMatchesOracle(t, want)
			if len(y.Events) != len(x.Events) {
				t.Fatalf("read %d events, wrote %d", len(y.Events), len(x.Events))
			}
			for i, e := range x.Events {
				if e.Kind != trace.EventKind(tricky) && y.Events[i] != e {
					t.Errorf("event %d read back as %+v, wrote %+v", i, y.Events[i], e)
				}
			}
			checkEncodeMatchesOracle(t, y)

			l := trace.New()
			for _, e := range x.Events {
				l.Append(e)
			}
			oracle := []oracleEvent(nil)
			for _, e := range l.Events() {
				oracle = append(oracle, toOracleEvent(e))
			}
			for _, log := range []*trace.Log{l, trace.New()} {
				got, err := log.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if log.Len() == 0 {
					oracle = nil
				}
				if want, _ := json.Marshal(oracle); !bytes.Equal(got, want) {
					t.Errorf("Log.MarshalJSON:\n got %s\nwant %s", got, want)
				}
			}
		})
	}
}

// genExecution draws a small execution from the codec's whole input space.
func genExecution(seed uint64) *Execution {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	strs := []string{"", "ok", "consistency", "<&>", tricky}
	pick := func() string { return strs[r.IntN(len(strs))] }
	small := func() int {
		if r.IntN(8) == 0 {
			return -1 - r.IntN(3)
		}
		return r.IntN(4)
	}
	x := &Execution{Meta: Meta{
		Kind: []string{"", "execution", "spans"}[r.IntN(3)], Worker: small(),
		Verdict: pick(), Detail: pick(),
	}}
	if r.IntN(2) == 0 {
		x.Meta.Run = map[string]string{"proto": "figure3", pick(): pick()}
	}
	for range r.IntN(4) {
		x.Meta.Path = append(x.Meta.Path, r.IntN(3))
		x.Meta.Schedule = append(x.Meta.Schedule, r.IntN(3))
		x.Meta.Inputs = append(x.Meta.Inputs, r.Int64N(20)-2)
	}
	kinds := []trace.EventKind{trace.EventCAS, trace.EventRead, trace.EventWrite, trace.EventDecide,
		trace.EventCorrupt, trace.EventHalt, "", "x<y", trace.EventKind(tricky)}
	w := func() word.Word {
		switch r.IntN(6) {
		case 0:
			return word.Bottom
		case 1:
			return word.FromValue(r.Int64N(20))
		case 2:
			return word.Pack(r.Int64N(word.MaxValue+1), r.Int64N(word.MaxStage+1))
		case 3:
			return word.Word(r.Uint64())
		default:
			return word.Pack(r.Int64N(20), r.Int64N(20))
		}
	}
	for i := range r.IntN(12) {
		e := trace.Event{Index: i, Kind: kinds[r.IntN(len(kinds))], Proc: small(), Object: small(),
			Exp: w(), New: w(), Pre: w(), Post: w(), Old: w(), Value: w()}
		if r.IntN(3) == 0 {
			e.Fault = fault.Kind(small() + r.IntN(4))
		}
		if r.IntN(4) == 0 { // zero optional fields
			e.Object, e.Exp, e.New, e.Pre, e.Post, e.Old, e.Value = 0, 0, 0, 0, 0, 0, 0
		}
		x.Events = append(x.Events, e)
	}
	for range r.IntN(3) {
		s := trace.Span{Name: pick(), Cat: pick(), PID: small(), TID: small(),
			Start: r.Int64N(1 << 40), Dur: r.Int64N(1 << 20)}
		if r.IntN(2) == 0 {
			s.Args = map[string]any{"n": r.IntN(1000), "big": r.Int64(), "ok": r.IntN(2) == 0, pick(): pick()}
		}
		x.Spans = append(x.Spans, s)
	}
	x.DroppedSpans = r.Int64N(3)
	return x
}

// Mutations of a canonical file for FuzzReadMatchesOracle.
const (
	mutNone       = iota
	mutFlip       // xor one byte
	mutTruncate   // cut the file at an offset
	mutReorder    // swap two adjacent keys of an event line
	mutWhitespace // insert a JSON whitespace byte
	mutDigit      // change one digit
	mutLine       // replace an event line with one of edgeLines
	mutations
)

// edgeLines are event lines at the edge of the canonical shape: each is
// either canonical or must be read by encoding/json, with its result or
// its error.
var edgeLines = []string{
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"obj":1,"exp":2,"new":3,"pre":4,"post":5,"old":6,"fault":7,"val":8}}`,
	`{"type":"event","event":{"i":9223372036854775807,"kind":"halt","proc":0,"new":18446744073709551615}}`,
	`{"type":"event","event":{"i":1,"kind":"read","proc":0,"obj":0}}`,
	`{"type":"event","event":{"i":01,"kind":"cas","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":00}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"obj":1,"obj":2}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"val":1,"exp":2}}`,
	`{"type":"event","event":{"kind":"cas","i":1,"proc":0}}`,
	`{"type":"event","event":{"i":9223372036854775808,"kind":"cas","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"new":18446744073709551616}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"fault":9223372036854775808}}`,
	`{"type":"event","event":{"i":-1,"kind":"cas","proc":-0,"fault":-1}}`,
	`{"type":"event","event":{"i":1.0,"kind":"cas","proc":0}}`,
	`{"type":"event","event":{"i":1e2,"kind":"cas","proc":0}}`,
	`{"type":"event","event":{"I":1,"KIND":"cas","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"c\u0061s","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"cas\"","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"bogus","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"extra":1}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,"obj":null}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0,}}`,
	`{"type":"event","event":{"i":,"kind":"cas","proc":0}}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0} }`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0}}x`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0}`,
	`{"type":"event","event":{"i":1,"kind":"cas","proc":0},"type":"span"}`,
	`{"type":"event","event":null}`,
}

// mutate applies mutation mut at position at (reduced modulo what it
// indexes), with arg choosing the byte, key pair or digit.
func mutate(data []byte, mut uint8, at int, arg byte) []byte {
	data = bytes.Clone(data)
	switch mut % mutations {
	case mutFlip:
		if len(data) > 0 {
			data[at%len(data)] ^= arg | 1
		}
	case mutTruncate:
		data = data[:at%(len(data)+1)]
	case mutReorder:
		lines := bytes.SplitAfter(data, []byte("\n"))
		var events []int
		for i, l := range lines {
			if bytes.HasPrefix(l, []byte(eventPrefix)) {
				events = append(events, i)
			}
		}
		if len(events) == 0 {
			break
		}
		i := events[at%len(events)]
		body := strings.TrimSuffix(strings.TrimPrefix(string(lines[i]), eventPrefix+"{"), "}"+eventSuffix)
		keys := strings.Split(body, `,"`) // a quote inside a string is escaped
		for k := 1; k < len(keys); k++ {
			keys[k] = `"` + keys[k]
		}
		if len(keys) < 2 {
			break
		}
		k := int(arg) % (len(keys) - 1)
		keys[k], keys[k+1] = keys[k+1], keys[k]
		lines[i] = []byte(eventPrefix + "{" + strings.Join(keys, ",") + "}" + eventSuffix)
		data = bytes.Join(lines, nil)
	case mutWhitespace:
		at %= len(data) + 1
		data = append(data[:at], append([]byte{" \t\r\n"[arg%4]}, data[at:]...)...)
	case mutLine:
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i, l := range lines {
			if bytes.HasPrefix(l, []byte(eventPrefix)) {
				lines[i] = []byte(edgeLines[int(arg)%len(edgeLines)] + "\n")
				break
			}
		}
		data = bytes.Join(lines, nil)
	case mutDigit:
		var digits []int
		for i, c := range data {
			if '0' <= c && c <= '9' {
				digits = append(digits, i)
			}
		}
		if len(digits) > 0 {
			data[digits[at%len(digits)]] = '0' + arg%10
		}
	}
	return data
}

// FuzzReadMatchesOracle: on a generated execution's file, unchanged or
// with a byte flipped, cut at an offset, two keys of an event line
// swapped, whitespace inserted or a digit changed, Read and the oracle
// both succeed with equal executions or both fail with the same error,
// and Read never panics. An execution Read accepts is written and
// rendered as the oracle would.
func FuzzReadMatchesOracle(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		for mut := uint8(0); mut < mutLine; mut++ {
			for _, at := range []uint16{0, 250, 1234} {
				f.Add(seed, mut, at, byte(seed*37+uint64(at)))
			}
		}
	}
	for i := range edgeLines {
		f.Add(uint64(5), uint8(mutLine), uint16(0), byte(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mut uint8, at uint16, arg byte) {
		data := mutate(encode(t, genExecution(seed)), mut, int(at), arg)
		if x := checkReadMatchesOracle(t, data); x != nil {
			checkEncodeMatchesOracle(t, x)
		}
	})
}

// goldenCaptures are the captures in testdata, written by the reflecting
// writer and renderer from `modelcheck -proto figure3 -f 2 -t 1 -n 4
// -workers 1 -trace D -trace-sample 7`: its violation, its first sample
// and its spans file, each with its Perfetto rendering.
var goldenCaptures = []string{"violation", "sample", "spans"}

func readGolden(t testing.TB, name string) (*Execution, []byte, []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perfetto, err := os.ReadFile(filepath.Join("testdata", name+".perfetto.json"))
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return x, data, perfetto
}

// TestGoldenCaptures: each golden capture, read back, is written and
// rendered to its files byte for byte, and read as the oracle reads it.
func TestGoldenCaptures(t *testing.T) {
	for _, name := range goldenCaptures {
		x, data, perfetto := readGolden(t, name)
		if want, err := oracleRead(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(x, want) {
			t.Errorf("%s: Read differs from the oracle (%v)", name, err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, name+".jsonl")
		if err := WriteExecution(path, x); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: WriteExecution does not reproduce testdata/%s.jsonl (%v)", name, name, err)
		}
		path = filepath.Join(dir, name+".perfetto.json")
		if err := WritePerfetto(path, x); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, perfetto) {
			t.Errorf("%s: WritePerfetto does not reproduce testdata/%s.perfetto.json (%v)", name, name, err)
		}
	}
}

// TestCodecAllocs: an event record allocates nothing once the writer's
// buffer has grown; a canonical event line allocates nothing, so reading
// a capture allocates no more than it would without its events, plus the
// events slice's growth; and a Perfetto rendering allocates as often for
// 20 times the events.
func TestCodecAllocs(t *testing.T) {
	x, data, _ := readGolden(t, "violation")

	w := NewWriter(io.Discard)
	if err := w.Begin(x.Meta); err != nil {
		t.Fatal(err)
	}
	writeAll := func() {
		for _, e := range x.Events {
			if err := w.Event(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeAll() // grows the record buffer
	if allocs := testing.AllocsPerRun(10, writeAll); allocs != 0 {
		t.Errorf("writing %d event records allocates %.0f times", len(x.Events), allocs)
	}

	var lines [][]byte
	for _, l := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(l, []byte(eventPrefix)) {
			lines = append(lines, l)
		}
	}
	var e trace.Event
	parseAll := func() {
		for _, l := range lines {
			if !parseEvent(l, &e) {
				t.Fatalf("canonical line not parsed directly: %s", l)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, parseAll); allocs != 0 {
		t.Errorf("parsing %d canonical event lines allocates %.0f times", len(lines), allocs)
	}
	readAllocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := *x
	bare.Events = nil
	growth := 0
	var events []trace.Event
	for _, e := range x.Events {
		if len(events) == cap(events) {
			growth++
		}
		events = append(events, e)
	}
	if full, base := readAllocs(data), readAllocs(encode(t, &bare)); full > base+float64(growth) {
		t.Errorf("reading %d events allocates %.0f times, %.0f without them: more than the events slice's %d",
			len(x.Events), full, base, growth)
	}

	render := func(x *Execution) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := Perfetto(io.Discard, x); err != nil {
				t.Fatal(err)
			}
		})
	}
	long := *x
	long.Events = nil
	for range 20 {
		for _, e := range x.Events {
			e.Index = len(long.Events)
			long.Events = append(long.Events, e)
		}
	}
	if one, twenty := render(x), render(&long); one > 2 || twenty > one {
		t.Errorf("rendering allocates %.0f times for %d events and %.0f for %d", one, len(x.Events), twenty, len(long.Events))
	}
}

// BenchmarkCapture times the trace layer on the golden violation: reading
// the file, writing it, and rendering it for Perfetto, all in memory.
func BenchmarkCapture(b *testing.B) {
	x, data, _ := readGolden(b, "violation")
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for range b.N {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for range b.N {
			encode(b, x)
		}
	})
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := Perfetto(io.Discard, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

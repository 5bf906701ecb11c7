package export

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

func traceSpan(name string, pid int) trace.Span {
	return trace.Span{Name: name, Cat: "checkpoint", PID: pid, TID: -1, Start: 200, Dur: 300}
}

// TestPerfettoShape decodes the rendered Chrome trace-event JSON and checks
// the structural contract Perfetto relies on: a traceEvents array, metadata
// lanes, complete slices in logical time, and instant marks at fault steps.
func TestPerfettoShape(t *testing.T) {
	x := sampleExecution()
	var buf bytes.Buffer
	if err := Perfetto(&buf, x); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	var metas, slices, instants, spans int
	var casArgs map[string]any
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			if e.Cat == "worker" {
				spans++
				continue
			}
			slices++
			if e.TS != int64(e.Args["step"].(float64))*stepUS {
				t.Errorf("slice ts %d does not encode step %v", e.TS, e.Args["step"])
			}
			if e.PID != x.Meta.Worker {
				t.Errorf("slice pid = %d, want worker %d", e.PID, x.Meta.Worker)
			}
			if e.Cat == "cas" && e.Args["fault"] == "overriding" {
				casArgs = e.Args
			}
		case "i":
			instants++
		}
	}
	if metas < 3 { // process_name + one thread_name per process
		t.Errorf("only %d metadata records", metas)
	}
	if slices != len(x.Events) {
		t.Errorf("%d slices for %d events", slices, len(x.Events))
	}
	if instants != 1 {
		t.Errorf("%d fault instants, want 1", instants)
	}
	if spans != 1 {
		t.Errorf("%d wall-clock spans, want 1", spans)
	}
	if casArgs == nil {
		t.Fatal("no faulty CAS slice found")
	}
	// The argument pane must carry the full observable state of the step.
	for _, key := range []string{"exp", "new", "observed", "wrote", "old", "fault"} {
		if _, ok := casArgs[key]; !ok {
			t.Errorf("faulty CAS args missing %q: %v", key, casArgs)
		}
	}
	if casArgs["observed"] != "10" || casArgs["wrote"] != "11" {
		t.Errorf("CAS observed/wrote = %v/%v, want 10/11", casArgs["observed"], casArgs["wrote"])
	}
}

// TestPerfettoEngineLane: spans with pid -1 (engine-level work such as
// checkpoint writes) must land in a dedicated non-negative pid lane.
func TestPerfettoEngineLane(t *testing.T) {
	x := sampleExecution()
	x.Spans = append(x.Spans, traceSpan("checkpoint", -1))
	var buf bytes.Buffer
	if err := Perfetto(&buf, x); err != nil {
		t.Fatal(err)
	}
	var f oraclePerfettoFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range f.TraceEvents {
		if e.PID < 0 {
			t.Errorf("negative pid leaked into the trace: %+v", e)
		}
		if e.Ph == "M" && e.Args["name"] == "engine" {
			found = true
		}
	}
	if !found {
		t.Error("no engine lane metadata for the pid -1 span")
	}
}

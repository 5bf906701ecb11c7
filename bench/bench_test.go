package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/trace"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smoke runs a workload for one set-up and two verdicts, tables in Quick mode.
func smoke(t *testing.T, w *workload, traced bool) *report {
	t.Helper()
	cfg := defaultConfig()
	cfg.traced = traced
	cfg.work = t.TempDir()
	cfg.setups = 1
	cfg.verdicts = 2
	cfg.quick = true
	rep, err := measure(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

// TestSmoke runs every declared workload untraced and traced: every verdict
// must match its known answer, every declared metric must be emitted with
// its unit and nothing else, and self times must stay within their spans.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, dw := range d.Workloads {
		w, err := lookup(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep := smoke(t, w, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rep.Metrics), len(want))
			}
			if traced {
				checkSpans(t, w.name, rep.spans)
			}
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
}

// checkSpans checks that every span lies within its parent and that no
// self time is negative or exceeds its parent's duration.
func checkSpans(t *testing.T, name string, ss []trace.Span) {
	t.Helper()
	if len(ss) == 0 {
		t.Errorf("%s: traced run recorded no spans", name)
	}
	byID := map[int]trace.Span{}
	for _, s := range ss {
		id, _ := spanIDs(s)
		byID[id] = s
	}
	self := selfTimes(ss)
	for i, s := range ss {
		if self[i] < 0 || self[i] > s.Dur {
			t.Errorf("%s: span %s self time %d outside [0, %d]", name, s.Name, self[i], s.Dur)
		}
		_, parent := spanIDs(s)
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Errorf("%s: span %s has unknown parent %d", name, s.Name, parent)
			continue
		}
		if s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur || self[i] > p.Dur {
			t.Errorf("%s: span %s [%d, +%d] escapes parent %s [%d, +%d]", name, s.Name, s.Start, s.Dur, p.Name, p.Start, p.Dur)
		}
	}
}

// TestWrongAnswerFails checks the failure accounting: with a deliberately
// wrong expected answer every verdict fails.
func TestWrongAnswerFails(t *testing.T) {
	w, err := lookup("prove-replay")
	if err != nil {
		t.Fatal(err)
	}
	wrong := *w
	wrong.want.executions++
	rep := smoke(t, &wrong, false)
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Errorf("wrong answer: correct=%v attempted=%d failed=%d, want every verdict failed", rep.Correct, rep.Attempted, rep.Failed)
	}
}

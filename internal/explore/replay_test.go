package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

func TestReplayReproducesCounterexample(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	out, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("expected a violation to replay")
	}

	re, err := Replay(&cfg, out.Violation.Path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Verdict.Violation != out.Violation.Verdict.Violation {
		t.Errorf("replay verdict %s, original %s", re.Verdict.Violation, out.Violation.Verdict.Violation)
	}
	if len(re.Schedule) != len(out.Violation.Schedule) {
		t.Fatalf("replay schedule length %d, original %d", len(re.Schedule), len(out.Violation.Schedule))
	}
	for i := range re.Schedule {
		if re.Schedule[i] != out.Violation.Schedule[i] {
			t.Fatalf("replay schedule diverged at %d: %v vs %v",
				i, re.Schedule, out.Violation.Schedule)
		}
	}
	// Event-for-event identical traces.
	a, b := re.Trace.Events(), out.Violation.Trace.Events()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs:\n got %s\nwant %s", i, a[i], b[i])
		}
	}
}

func TestReplayEmptyPathIsFirstExecution(t *testing.T) {
	cfg := run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
	}
	ce, err := Replay(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ce.Verdict.OK() {
		t.Errorf("first fault-free execution must be OK: %s", ce.Verdict)
	}
	if len(ce.Schedule) == 0 {
		t.Error("replay must record a schedule")
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(&run.Settings{Inputs: inputs(1)}, nil); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := Replay(&run.Settings{Protocol: core.SingleCAS{}}, nil); err == nil {
		t.Error("missing inputs must error")
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	}
	path := []int{1, 0, 1} // arbitrary prefix into the tree
	a, err := Replay(&cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(&cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("trace lengths differ across replays: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i, e := range a.Trace.Events() {
		if e != b.Trace.Events()[i] {
			t.Fatalf("replays diverged at event %d", i)
		}
	}
}

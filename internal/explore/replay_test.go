package explore

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// TestReplayRefusesPathsNamingNoExecution: Replay takes paths read from
// files (a trace's path for Explain, a checkpoint's best path for resume),
// so a path that names no execution must come back as an error that says
// so, not a panic. It is checked as Leaves checks a prefix: a negative
// choice, a choice past the alternatives its node offers (a scheduling or a
// fault choice), and more choices than the execution makes. A shorter path
// still stands for its first-fill extension.
func TestReplayRefusesPathsNamingNoExecution(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	}
	for _, tc := range []struct {
		name string
		path []int
		want string
	}{
		{"scheduling choice out of range", []int{7}, "path [7] names no state: position 0 offers 2 alternatives"},
		{"negative choice", []int{-1}, "path [-1] names no state: choice -1 at position 0"},
		{"fault choice out of range", []int{0, 5}, "path [0 5] names no state: position 1 offers 2 alternatives"},
		{"more choices than the execution makes", []int{0, 0, 0, 0}, "path [0 0 0 0] names no state: its execution ends after"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ce, err := Replay(&cfg, tc.path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Replay(%v) = %v, %v; want an error containing %q", tc.path, ce, err, tc.want)
			}
		})
	}
	ce, err := Replay(&cfg, []int{0})
	if err != nil {
		t.Fatalf("a prefix of an execution must replay its first-fill extension: %v", err)
	}
	if len(ce.Path) < 2 || ce.Path[0] != 0 {
		t.Errorf("replayed path = %v, want an extension of [0]", ce.Path)
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

// TestCaptureMatchesReference holds the engine's counterexample to the
// goroutine reference rather than to another engine run: an engine worker's
// leaves record nothing, and a violating leaf gets its schedule and trace
// from one more replay of its path (execState.keep), so only an independent
// replay catches a capture that drifts from the leaf. For every violating
// case of reduceCases, with reduction off, at dedup {off, on} × workers
// {1, 2}, the violation's path is replayed from the root on refReplay, and
// the engine's Schedule, Verdict and Trace must match it event for event.
func TestCaptureMatchesReference(t *testing.T) {
	for _, tc := range reduceCases() {
		if !tc.violate {
			continue
		}
		for _, dedup := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				cfg := tc.cfg
				cfg.Dedup, cfg.Workers = dedup, workers
				t.Run(fmt.Sprintf("%s/dedup=%v/workers=%d", tc.name, dedup, workers), func(t *testing.T) {
					out, err := check(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					ce := out.Violation
					if ce == nil {
						t.Fatal("no violation found")
					}
					kind, _, err := prepare(&cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					c := &chooser{path: append([]int(nil), ce.Path...)}
					ref := newRefReplay(&cfg, kind, c)
					defer ref.close()
					v, _, err := ref.runLeaf()
					if err != nil {
						t.Fatal(err)
					}
					if c.pos != len(ce.Path) || len(c.path) != len(ce.Path) {
						t.Fatalf("reference consumed %d choices of %v for the path %v", c.pos, c.path, ce.Path)
					}
					if !reflect.DeepEqual(v, ce.Verdict) {
						t.Errorf("verdict: reference %+v, engine %+v", v, ce.Verdict)
					}
					if !slices.Equal(ref.schedule, ce.Schedule) {
						t.Errorf("schedule: reference %v, engine %v", ref.schedule, ce.Schedule)
					}
					if diff := diffEvents(ref.log.Events(), ce.Trace.Events()); diff != "" {
						t.Errorf("trace: %s", diff)
					}
				})
			}
		}
	}
}

// TestKeepRefusesIrreproducibleLeaf: a fixed Policy is opaque and may keep
// state across invocations, so the recording replay of a kept leaf can
// differ from the leaf the worker replayed. The run must then fail with an
// error instead of reporting a counterexample whose trace belongs to a
// different execution. The policy here fires one overriding fault, on the
// second CAS of the run: the first leaf violates, its replay does not.
func TestKeepRefusesIrreproducibleLeaf(t *testing.T) {
	calls := 0
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
		Policy: fault.PolicyFunc(func(fault.Op) fault.Proposal {
			calls++
			if calls == 2 {
				return fault.Proposal{Kind: fault.Overriding}
			}
			return fault.NoFault
		}),
	}
	out, err := check(&cfg)
	if err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("outcome %+v, err %v; want the irreproducible leaf refused", out, err)
	}
}

// TestLeavesWalksTheEngineTree: Leaves visits exactly the leaves the
// one-worker engine enumerates, in increasing lexicographic order, and a
// walk below a prefix visits exactly the leaves that extend it. A walk
// refuses dedup, reduction and a subtree larger than the execution cap.
func TestLeavesWalksTheEngineTree(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	}
	out, err := check(&cfg)
	if err != nil || !out.Complete || !out.OK() {
		t.Fatalf("engine: complete=%v err=%v", out != nil && out.Complete, err)
	}
	walk := func(s *run.Settings, prefix []int) ([][]int, error) {
		var leaves [][]int
		err := Leaves(context.Background(), s, prefix, -1, func(path []int, v run.Verdict) {
			if !v.OK() {
				t.Errorf("leaf %v: %s", path, v)
			}
			leaves = append(leaves, slices.Clone(path))
		})
		return leaves, err
	}
	all, err := walk(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != out.Executions {
		t.Fatalf("Leaves visited %d leaves, the engine %d", len(all), out.Executions)
	}
	for i := 1; i < len(all); i++ {
		if !lexLess(all[i-1], all[i]) {
			t.Fatalf("leaf %d %v does not follow %v in lexicographic order", i, all[i], all[i-1])
		}
	}

	prefix := all[len(all)/2][:3]
	var want [][]int
	for _, p := range all {
		if len(p) >= len(prefix) && slices.Equal(p[:len(prefix)], prefix) {
			want = append(want, p)
		}
	}
	if below, err := walk(&cfg, prefix); err != nil || !reflect.DeepEqual(below, want) {
		t.Fatalf("below %v: %d leaves (err %v), want the %d that extend it", prefix, len(below), err, len(want))
	}

	if _, err := walk(with(&cfg, run.WithMaxExecutions(out.Executions)), nil); err != nil {
		t.Errorf("a cap of exactly the tree's %d leaves refused: %v", out.Executions, err)
	}
	for name, s := range map[string]*run.Settings{
		"dedup":     with(&cfg, run.WithDedup()),
		"reduction": with(&cfg, run.WithReduce(run.ReduceSafe)),
		"cap":       with(&cfg, run.WithMaxExecutions(out.Executions-1)),
	} {
		if _, err := walk(s, nil); err == nil {
			t.Errorf("%s: walk accepted", name)
		}
	}
}

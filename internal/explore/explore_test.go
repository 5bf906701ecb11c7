package explore

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

func inputs(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(10 + i)
	}
	return in
}

// with returns a copy of s with the options applied; s is left untouched.
func with(s *run.Settings, opts ...run.Option) *run.Settings {
	c := *s
	for _, opt := range opts {
		opt(&c)
	}
	return &c
}

// check explores s on the engine with one worker — leaves in lexicographic
// order, the sequential enumeration — unless s names a worker count.
func check(s *run.Settings) (*Outcome, error) {
	if s.Workers == 0 {
		s = with(s, run.WithWorkers(1))
	}
	return (&Engine{}).Check(context.Background(), s)
}

// findMinimal is Engine.FindMinimal with one worker.
func findMinimal(s *run.Settings) (*Counterexample, *Outcome, error) {
	return (&Engine{}).FindMinimal(context.Background(), with(s, run.WithWorkers(1)))
}

// dedupIf sets Settings.Dedup to on.
func dedupIf(on bool) run.Option { return func(s *run.Settings) { s.Dedup = on } }

// checkpointEvery sets the checkpoint period of an engine with a Store.
func checkpointEvery(d time.Duration) run.Option {
	return func(s *run.Settings) { s.CheckpointEvery = d }
}

func TestExhaustiveSingleCASTwoProcsFaultFree(t *testing.T) {
	out, err := check(&run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("tiny tree must be enumerated completely")
	}
	if !out.OK() {
		t.Fatalf("violation: %s", out.Violation)
	}
	// Two processes, one step each: exactly 2 interleavings.
	if out.Executions != 2 {
		t.Errorf("executions = %d, want 2", out.Executions)
	}
}

func TestExhaustiveTheorem4(t *testing.T) {
	// Theorem 4, verified exhaustively: a single CAS object with
	// unboundedly many overriding faults solves consensus for two
	// processes under EVERY schedule and fault pattern.
	out, err := check(&run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("enumeration must complete")
	}
	if !out.OK() {
		t.Fatalf("Theorem 4 violated: %s", out.Violation)
	}
	if out.MaxFaults == 0 {
		t.Error("exploration never injected a fault — adversary space not covered")
	}
}

func TestExhaustiveTheorem18Instance(t *testing.T) {
	// Theorem 18 instance: three processes on one CAS object with
	// unbounded overriding faults. The checker must find a violation.
	out, err := check(&run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("Theorem 18 predicts a violation; none found")
	}
	if out.Violation.Verdict.Violation != run.ViolationConsistency {
		t.Errorf("violation kind = %s, want consistency", out.Violation.Verdict.Violation)
	}
	if len(out.Violation.Schedule) == 0 || out.Violation.Trace.Len() == 0 {
		t.Error("counterexample must carry schedule and trace")
	}
}

func TestExhaustiveTheorem5SmallInstance(t *testing.T) {
	// Figure 2 with f=1 (two objects, one faulty with unbounded faults),
	// two and three processes, every faulty-object choice.
	for _, faulty := range [][]int{{0}, {1}} {
		for _, n := range []int{2, 3} {
			out, err := check(&run.Settings{
				Protocol:        core.NewFPlusOne(1),
				Inputs:          inputs(n),
				FaultyObjects:   faulty,
				FaultsPerObject: fault.Unbounded,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Complete {
				t.Fatalf("n=%d faulty=%v: enumeration incomplete (%d execs)", n, faulty, out.Executions)
			}
			if !out.OK() {
				t.Fatalf("n=%d faulty=%v: Theorem 5 violated: %s", n, faulty, out.Violation)
			}
		}
	}
}

func TestExhaustiveTheorem6SmallestInstance(t *testing.T) {
	// Figure 3 with f=1, t=1, n=2: one object, itself faulty, one
	// overriding fault. Verified over the complete execution tree.
	out, err := check(&run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("enumeration incomplete after %d executions", out.Executions)
	}
	if !out.OK() {
		t.Fatalf("Theorem 6 violated: %s", out.Violation)
	}
	if out.MaxFaults != 1 {
		t.Errorf("max faults = %d, want 1 (the adversary's full budget)", out.MaxFaults)
	}
}

func TestExhaustiveTheorem19Instance(t *testing.T) {
	// Theorem 19 instance: Figure 3 sized for f=1, t=1 runs with
	// n = f+2 = 3 processes. The checker must find a violation.
	out, err := check(&run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatalf("Theorem 19 predicts a violation; none found in %d executions (complete=%v)",
			out.Executions, out.Complete)
	}
}

func TestExhaustiveTwoProcessAnomalyExtendsToStaged(t *testing.T) {
	// Theorem 4's two-process anomaly extends beyond Figure 1: the staged
	// protocol sized for t=1 survives three actual overriding faults at
	// n=2 — exhaustively. (A finding of this reproduction, used by
	// experiment E9's commentary; the old value's truthfulness is all two
	// processes need.)
	out, err := check(&run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 3,
		MaxExecutions:   100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("enumeration incomplete after %d executions", out.Executions)
	}
	if !out.OK() {
		t.Fatalf("violation: %s", out.Violation)
	}
	if out.MaxFaults != 3 {
		t.Errorf("max faults = %d, want 3 (budget fully explored)", out.MaxFaults)
	}
}

func TestExhaustiveSilentRetry(t *testing.T) {
	out, err := check(&run.Settings{
		Protocol:        core.NewSilentRetry(2),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 2,
		Kind:            fault.Silent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("enumeration incomplete after %d executions", out.Executions)
	}
	if !out.OK() {
		t.Fatalf("silent retry violated: %s", out.Violation)
	}
}

func TestExhaustiveSilentUnboundedLivelock(t *testing.T) {
	out, err := check(&run.Settings{
		Protocol:        core.NewSilentRetry(1), // believes B=1
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded, // reality: ∞
		Kind:            fault.Silent,
		StepLimit:       12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("unbounded silent faults must produce a wait-freedom violation")
	}
	if out.Violation.Verdict.Violation != run.ViolationWaitFreedom {
		t.Errorf("violation kind = %s, want wait-freedom", out.Violation.Verdict.Violation)
	}
}

func TestExhaustiveMixedFaultKinds(t *testing.T) {
	// Definition 3's mix of faults, model-checked: Figure 2 with f=2
	// faulty objects deviating toward DIFFERENT relaxed postconditions
	// (object 0 overriding, object 1 silent), schedules explored
	// exhaustively with the faults always on.
	mixed := fault.PerObject(map[int]fault.Policy{
		0: fault.WhenEffective(fault.Always(fault.Overriding)),
		1: fault.WhenEffective(fault.Always(fault.Silent)),
	})
	out, err := check(&run.Settings{
		Protocol:        core.NewFPlusOne(2),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1},
		FaultsPerObject: fault.Unbounded,
		Policy:          mixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("enumeration incomplete after %d executions", out.Executions)
	}
	if !out.OK() {
		t.Fatalf("mixed faults broke Figure 2: %s", out.Violation)
	}
	if out.MaxFaults == 0 {
		t.Error("mixed-fault exploration never faulted")
	}
}

func TestCheckCapReportsIncomplete(t *testing.T) {
	out, err := check(&run.Settings{
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1},
		FaultsPerObject: 1,
		MaxExecutions:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete {
		t.Error("capped run must not report completeness")
	}
	if out.Executions != 50 && out.Violation == nil {
		t.Errorf("executions = %d, want 50 (cap)", out.Executions)
	}
}

func TestCheckValidation(t *testing.T) {
	if _, err := check(&run.Settings{Inputs: inputs(1)}); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := check(&run.Settings{Protocol: core.SingleCAS{}}); err == nil {
		t.Error("missing inputs must error")
	}
	if _, err := check(&run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(1), Kind: fault.Arbitrary}); err == nil {
		t.Error("unsupported fault kind must error")
	}
}

func TestStressSeedDeterminism(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	}
	a, err := stress(&cfg, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stress(&cfg, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != b.Violations || a.TotalFaults != b.TotalFaults || a.MaxProcSteps != b.MaxProcSteps {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestStressFindsKnownViolation(t *testing.T) {
	out, err := stress(&run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("stress must hit the three-process violation")
	}
	if out.First == nil || out.First.Trace.Len() == 0 {
		t.Error("first counterexample must be recorded")
	}
	if out.Rate() <= 0 || out.Rate() > 1 {
		t.Errorf("rate = %v", out.Rate())
	}
}

func TestStressCleanConfigStaysClean(t *testing.T) {
	out, err := stress(&run.Settings{
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1},
		FaultsPerObject: 1,
	}, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("Theorem 6 configuration violated under stress: %s", out.First)
	}
	if out.TotalFaults == 0 {
		t.Error("stress never injected faults")
	}
}

func TestStressValidation(t *testing.T) {
	if _, err := stress(&run.Settings{Inputs: inputs(1)}, 1, 0); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := stress(&run.Settings{Protocol: core.SingleCAS{}}, 1, 0); err == nil {
		t.Error("missing inputs must error")
	}
}

func TestChooserOdometer(t *testing.T) {
	// Enumerate a known tree: two binary choices → 4 leaves.
	c := &chooser{}
	leaves := 0
	for {
		c.arity = c.arity[:0]
		c.pos = 0
		_ = c.choose(2)
		_ = c.choose(2)
		leaves++
		if !c.next() {
			break
		}
	}
	if leaves != 4 {
		t.Errorf("enumerated %d leaves, want 4", leaves)
	}
}

func TestChooserVariableArity(t *testing.T) {
	// First choice selects arity of the second: 0→1 alternative, 1→3.
	c := &chooser{}
	var seen [][2]int
	for {
		c.arity = c.arity[:0]
		c.pos = 0
		a := c.choose(2)
		var b int
		if a == 0 {
			b = c.choose(1)
		} else {
			b = c.choose(3)
		}
		seen = append(seen, [2]int{a, b})
		if !c.next() {
			break
		}
	}
	want := [][2]int{{0, 0}, {1, 0}, {1, 1}, {1, 2}}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
}

package run

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// consensus runs one execution described by the settings.
func consensus(s Settings) (*Result, error) {
	return ConsensusContext(context.Background(), &s)
}

func TestConsensusHappyPath(t *testing.T) {
	res, err := consensus(Settings{
		Protocol: core.SingleCAS{},
		Inputs:   []int64{1, 2},
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("verdict: %s", res.Verdict)
	}
	if res.Sim.Log == nil || res.Sim.Log.Len() == 0 {
		t.Error("trace requested but empty")
	}
	if res.Bank.Len() != 1 {
		t.Errorf("bank size = %d", res.Bank.Len())
	}
}

func TestConsensusValidation(t *testing.T) {
	if _, err := consensus(Settings{Inputs: []int64{1}}); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := consensus(Settings{Protocol: core.SingleCAS{}}); err == nil {
		t.Error("missing inputs must error")
	}
}

func TestConsensusObserver(t *testing.T) {
	var n int
	_, err := consensus(Settings{
		Protocol: core.SingleCAS{},
		Inputs:   []int64{1, 2},
		Observer: func(trace.Event) { n++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // 2 CAS + 2 decide
		t.Errorf("observer saw %d events, want 4", n)
	}
}

func TestConsensusCustomStepLimit(t *testing.T) {
	res, err := consensus(Settings{
		Protocol:  core.NewSilentRetry(1), // StepBound 3
		Inputs:    []int64{1},
		Budget:    fault.NewFixedBudget([]int{0}, fault.Unbounded),
		Policy:    fault.Always(fault.Silent),
		StepLimit: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Violation != ViolationWaitFreedom {
		t.Fatalf("verdict = %s", res.Verdict)
	}
	if res.Sim.Steps[0] != 8 {
		t.Errorf("steps = %d, want limit+1 = 8", res.Sim.Steps[0])
	}
}

func simResult(decided []bool, vals []int64, stopped bool) *sim.Result {
	ws := make([]word.Word, len(vals))
	for i, v := range vals {
		if v >= 0 {
			ws[i] = word.FromValue(v)
		}
	}
	return &sim.Result{
		Decided:   decided,
		Decisions: ws,
		Steps:     make([]int, len(vals)),
		Stalled:   make([]bool, len(vals)),
		Stopped:   stopped,
	}
}

func TestEvaluateOK(t *testing.T) {
	v := Evaluate([]int64{5, 6}, simResult([]bool{true, true}, []int64{5, 5}, false), nil)
	if !v.OK() {
		t.Fatalf("verdict: %s", v)
	}
	if v.Agreed.Value() != 5 {
		t.Errorf("agreed = %s", v.Agreed)
	}
}

func TestEvaluateValidityViolation(t *testing.T) {
	v := Evaluate([]int64{5, 6}, simResult([]bool{true, true}, []int64{7, 7}, false), nil)
	if v.Violation != ViolationValidity {
		t.Fatalf("verdict: %s", v)
	}
}

func TestEvaluateBottomDecisionIsInvalid(t *testing.T) {
	v := Evaluate([]int64{5}, simResult([]bool{true}, []int64{-1}, false), nil)
	if v.Violation != ViolationValidity {
		t.Fatalf("verdict: %s", v)
	}
}

func TestEvaluateConsistencyViolation(t *testing.T) {
	v := Evaluate([]int64{5, 6}, simResult([]bool{true, true}, []int64{5, 6}, false), nil)
	if v.Violation != ViolationConsistency {
		t.Fatalf("verdict: %s", v)
	}
}

func TestEvaluateUndecidedIsWaitFreedomViolation(t *testing.T) {
	v := Evaluate([]int64{5, 6}, simResult([]bool{true, false}, []int64{5, -1}, false), nil)
	if v.Violation != ViolationWaitFreedom {
		t.Fatalf("verdict: %s", v)
	}
}

func TestEvaluateStoppedExecutionJudgedOnDeciders(t *testing.T) {
	// An adversarially stopped execution with agreeing survivors is OK...
	v := Evaluate([]int64{5, 6, 7}, simResult([]bool{true, false, true}, []int64{5, -1, 5}, true), nil)
	if !v.OK() {
		t.Fatalf("verdict: %s", v)
	}
	// ...but disagreeing survivors still violate consistency.
	v = Evaluate([]int64{5, 6, 7}, simResult([]bool{true, false, true}, []int64{5, -1, 6}, true), nil)
	if v.Violation != ViolationConsistency {
		t.Fatalf("verdict: %s", v)
	}
}

func TestEvaluateValidityBeatsConsistencyOrdering(t *testing.T) {
	// The first decider already violates validity; report that.
	v := Evaluate([]int64{5}, simResult([]bool{true}, []int64{9}, false), nil)
	if v.Violation != ViolationValidity {
		t.Fatalf("verdict: %s", v)
	}
}

func TestVerdictString(t *testing.T) {
	ok := Evaluate([]int64{5}, simResult([]bool{true}, []int64{5}, false), nil)
	if s := ok.String(); s == "" {
		t.Error("empty OK string")
	}
	bad := Evaluate([]int64{5, 6}, simResult([]bool{true, true}, []int64{5, 6}, false), nil)
	if s := bad.String(); s == "" {
		t.Error("empty violation string")
	}
}

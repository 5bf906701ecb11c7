package adversary

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/word"
)

func inputs(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(10 + i)
	}
	return in
}

func TestCoveringBreaksStagedAtFPlus2(t *testing.T) {
	// Theorem 19: for every f, the covering adversary defeats the
	// f-object staged protocol once n = f+2.
	for _, f := range []int{1, 2, 3, 4} {
		proto := core.NewStaged(f, 1)
		res, err := Covering(proto, inputs(f+2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Violated() {
			t.Errorf("f=%d: covering adversary failed to break the protocol", f)
			continue
		}
		if res.Verdict.Violation != run.ViolationConsistency {
			t.Errorf("f=%d: violation = %s, want consistency", f, res.Verdict.Violation)
		}
		if len(res.Covered) != f {
			t.Errorf("f=%d: covered %d objects, want %d", f, len(res.Covered), f)
		}
		// The proof requires the covered objects to be distinct.
		seen := map[int]bool{}
		for _, o := range res.Covered {
			if seen[o] {
				t.Errorf("f=%d: object %d covered twice", f, o)
			}
			seen[o] = true
		}
	}
}

func TestCoveringUsesAtMostOneFaultPerObject(t *testing.T) {
	proto := core.NewStaged(2, 1)
	res, err := Covering(proto, inputs(4))
	if err != nil {
		t.Fatal(err)
	}
	perObject := map[int]int{}
	for _, e := range res.Trace.Faults() {
		perObject[e.Object]++
	}
	for obj, n := range perObject {
		if n > 1 {
			t.Errorf("object %d faulted %d times; covering must stay within t=1", obj, n)
		}
	}
	if len(perObject) > 2 {
		t.Errorf("%d faulty objects; covering must stay within f=2", len(perObject))
	}
}

func TestCoveringProberDisagreesWithP0(t *testing.T) {
	proto := core.NewStaged(1, 1)
	res, err := Covering(proto, inputs(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sim.Decided[0] {
		t.Fatal("p0 must decide during its solo run")
	}
	prober := 2
	if !res.Sim.Decided[prober] {
		t.Fatal("the prober must decide during its solo run")
	}
	if res.Sim.Decisions[0] == res.Sim.Decisions[prober] {
		t.Error("prober agreed with p0; the cover failed")
	}
	// p0 decided its own input (solo run + validity).
	if res.Sim.Decisions[0].Value() != 10 {
		t.Errorf("p0 decided %s, want its input 10", res.Sim.Decisions[0])
	}
}

func TestCoveringBreaksFPlusOneGivenOnlyFObjects(t *testing.T) {
	// Theorem 19 applies to any protocol on f objects: Figure 2
	// mis-provisioned with f objects total (i.e. treating all of its
	// objects as potentially faulty with f = objects) breaks at n ≥ f+2.
	// FPlusOne(0) uses a single object; run it with 3 processes.
	res, err := Covering(core.NewFPlusOne(0), inputs(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Error("single-object Figure 2 must fall to the covering adversary at n=3")
	}
}

func TestCoveringTightnessAtFPlus1(t *testing.T) {
	// With only f+1 processes the same cover cannot break Theorem 6's
	// protocol: after the coverers resume, everyone agrees.
	for _, f := range []int{1, 2, 3} {
		proto := core.NewStaged(f, 1)
		res, err := CoveringTightness(proto, inputs(f+1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated() {
			t.Errorf("f=%d: tightness run violated consensus: %s\n%s",
				f, res.Verdict, res.Trace)
		}
		for i, ok := range res.Sim.Decided {
			if !ok {
				t.Errorf("f=%d: process %d never decided in tightness mode", f, i)
			}
		}
	}
}

func TestCoveringInputCountValidation(t *testing.T) {
	if _, err := Covering(core.NewStaged(2, 1), inputs(3)); err == nil {
		t.Error("covering must insist on n = f+2 inputs")
	}
	if _, err := CoveringTightness(core.NewStaged(2, 1), inputs(4)); err == nil {
		t.Error("tightness must insist on n = f+1 inputs")
	}
}

func TestReducedModelDefeatsSingleCASThreeProcs(t *testing.T) {
	// Theorem 18's reduced model: p0's CAS executions are always faulty.
	// Exploring schedules only (faults deterministic) must find a
	// violation for the single-object protocol with three processes.
	out, err := explore.CheckWith(context.Background(),
		run.WithProtocol(core.SingleCAS{}),
		run.WithInputs(inputs(3)...),
		run.WithFaultyObjects([]int{0}, fault.Unbounded),
		run.WithPolicy(ReducedModelPolicy(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("reduced model must defeat the single-CAS protocol at n=3")
	}
}

func TestReducedModelHarmlessAtTwoProcs(t *testing.T) {
	// Theorem 4 again, now under the reduced model: schedules explored
	// exhaustively, p0 always faulty — two processes still agree.
	out, err := explore.CheckWith(context.Background(),
		run.WithProtocol(core.SingleCAS{}),
		run.WithInputs(inputs(2)...),
		run.WithFaultyObjects([]int{0}, fault.Unbounded),
		run.WithPolicy(ReducedModelPolicy(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("reduced model broke the two-process case: complete=%v ok=%v", out.Complete, out.OK())
	}
}

func TestDataFaultBreaksStagedWhereFunctionalCannot(t *testing.T) {
	// The expressiveness gap (experiment E7): Staged(f=1, t=1) with two
	// processes provably survives every overriding fault pattern (see
	// TestExhaustiveTheorem6SmallestInstance), but ONE data fault —
	// rewriting the object with the second process's value at final
	// stage — breaks consistency.
	proto := core.NewStaged(1, 1)
	in := inputs(2)
	forged := word.Pack(in[1], proto.MaxStage())
	res, err := DataFault(proto, in, 0, forged)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Fatalf("data fault failed to break the protocol\n%s", res.Trace)
	}
	if res.Verdict.Violation != run.ViolationConsistency {
		t.Errorf("violation = %s, want consistency", res.Verdict.Violation)
	}
}

func TestDataFaultTraceRecordsCorruption(t *testing.T) {
	proto := core.NewStaged(1, 1)
	in := inputs(2)
	res, err := DataFault(proto, in, 0, word.Pack(in[1], proto.MaxStage()))
	if err != nil {
		t.Fatal(err)
	}
	var corrupts int
	for _, e := range res.Trace.Events() {
		if e.Kind == "corrupt" {
			corrupts++
		}
	}
	if corrupts != 1 {
		t.Errorf("trace has %d corrupt events, want 1", corrupts)
	}
}

func TestDataFaultValidation(t *testing.T) {
	if _, err := DataFault(core.SingleCAS{}, inputs(2), 5, word.Bottom); err == nil {
		t.Error("out-of-range object must error")
	}
}

func TestDataFaultHarmlessValueKeepsConsensus(t *testing.T) {
	// A data fault that rewrites the register with a stale-but-harmless
	// value (p0's own final word) does not break this particular run —
	// the adversary must aim. This guards against the verdict machinery
	// flagging every corruption as a violation.
	proto := core.NewStaged(1, 1)
	in := inputs(2)
	sameVal := word.Pack(in[0], proto.MaxStage())
	res, err := DataFault(proto, in, 0, sameVal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated() {
		t.Errorf("harmless corruption flagged: %s", res.Verdict)
	}
}

// Integration tests spanning the full pipeline: model checking →
// counterexample → serialization → replay → specification audit, and
// protocol portability across the simulated and atomic substrates.
package repro_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/adversary"
	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/word"
)

func TestCounterexamplePipeline(t *testing.T) {
	// 1. The checker finds the Theorem 18 violation.
	cfg := &run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          benchInputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	out, err := (&explore.Engine{}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("expected a violation")
	}
	ce := out.Violation

	// 2. The trace serializes and round-trips through JSON.
	data, err := json.Marshal(ce.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var restored trace.Log
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ce.Trace.Len() {
		t.Fatalf("JSON round trip lost events: %d vs %d", restored.Len(), ce.Trace.Len())
	}

	// 3. The choice path replays to the identical execution.
	re, err := explore.Replay(cfg, ce.Path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Verdict.Violation != ce.Verdict.Violation {
		t.Fatalf("replay verdict %s, original %s", re.Verdict.Violation, ce.Verdict.Violation)
	}

	// 4. The specification auditor confirms every event matches its
	//    label and the execution stayed within the declared budget.
	audit := spec.AuditTrace(ce.Trace)
	if len(audit.Mismatches) != 0 {
		t.Fatalf("audit found %d classification mismatches", len(audit.Mismatches))
	}
	if !audit.Tolerable(1, fault.Unbounded) {
		t.Fatal("the counterexample exceeded its own fault budget")
	}
	if len(audit.FaultyObjects()) == 0 {
		t.Fatal("the Theorem 18 violation must involve at least one fault")
	}
}

func TestCoveringTraceAuditsClean(t *testing.T) {
	// The covering adversary's execution must itself be a legal
	// (f, 1)-budget execution — the whole point of Theorem 19.
	for _, f := range []int{1, 2, 3} {
		proto := core.NewStaged(f, 1)
		res, err := adversary.Covering(proto, benchInputs(f+2))
		if err != nil {
			t.Fatal(err)
		}
		audit := spec.AuditTrace(res.Trace)
		if len(audit.Mismatches) != 0 {
			t.Errorf("f=%d: %d audit mismatches", f, len(audit.Mismatches))
		}
		if !audit.Tolerable(f, 1) {
			t.Errorf("f=%d: covering execution exceeded the (f, 1) budget: %s", f, audit)
		}
	}
}

func TestScheduleScriptReproducesCounterexample(t *testing.T) {
	// A recorded counterexample schedule replays through the public
	// Script scheduler (with fault decisions scripted from the trace)
	// and yields the same violation — the end-to-end reproducibility
	// guarantee the trace format exists for.
	cfg := &run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          benchInputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	out, err := (&explore.Engine{}).Check(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce := out.Violation
	if ce == nil {
		t.Fatal("expected a violation")
	}

	// Script the faults: replay each CAS event's fault label in order.
	var labels []fault.Kind
	for _, e := range ce.Trace.Events() {
		if e.Kind == trace.EventCAS {
			labels = append(labels, e.Fault)
		}
	}
	i := 0
	scripted := fault.PolicyFunc(func(fault.Op) fault.Proposal {
		if i < len(labels) && labels[i] != fault.None {
			i++
			return fault.Proposal{Kind: labels[i-1]}
		}
		i++
		return fault.NoFault
	})

	res, err := consensus(run.Settings{
		Protocol:  cfg.Protocol,
		Inputs:    cfg.Inputs,
		Scheduler: sim.NewScript(ce.Schedule...),
		Budget:    fault.NewFixedBudget(cfg.FaultyObjects, cfg.FaultsPerObject),
		Policy:    scripted,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Violation != ce.Verdict.Violation {
		t.Fatalf("scripted replay verdict %q, original %q\nreplay trace:\n%s",
			res.Verdict.Violation, ce.Verdict.Violation, res.Sim.Log)
	}
}

func TestProtocolPortabilityAcrossSubstrates(t *testing.T) {
	// The same protocol value runs on both substrates; in a sequential
	// (single-participant) setting both must decide the proposer's input.
	protos := []core.Protocol{
		core.SingleCAS{},
		core.NewFPlusOne(2),
		core.NewStaged(2, 1),
		core.NewSilentRetry(1),
	}
	for _, proto := range protos {
		// Simulated substrate.
		simRes, err := consensus(run.Settings{
			Protocol: proto,
			Inputs:   []int64{77},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := simRes.Verdict.Agreed.Value(); got != 77 {
			t.Errorf("%s on simulator decided %d", proto.Name(), got)
		}
		// Atomic substrate.
		if got := proto.Decide(atomicx.NewBank(proto.Objects()), 77); got != 77 {
			t.Errorf("%s on atomics decided %d", proto.Name(), got)
		}
	}
}

func TestSimAndAtomicsAgreeOnSequentialHistory(t *testing.T) {
	// Drive the two CAS implementations through the same operation
	// sequence and compare every old value and final content.
	type op struct{ exp, new word.Word }
	ops := []op{
		{word.Bottom, word.FromValue(1)},
		{word.Bottom, word.FromValue(2)}, // fails
		{word.FromValue(1), word.FromValue(3)},
		{word.FromValue(3), word.FromValue(3)},
		{word.FromValue(9), word.FromValue(4)}, // fails
	}
	simObj := object.NewCAS(0, nil, nil)
	atomBank := atomicx.NewBank(1)
	for i, o := range ops {
		a, _ := simObj.Apply(0, o.exp, o.new)
		b := atomBank.CAS(0, o.exp, o.new)
		if a != b {
			t.Fatalf("op %d: sim old %s, atomic old %s", i, a, b)
		}
	}
	if simObj.Content() != atomBank.Snapshot()[0] {
		t.Fatalf("final contents diverge: %s vs %s", simObj.Content(), atomBank.Snapshot()[0])
	}
}

func TestAuditToleranceMatchesBudgetAcrossRandomRuns(t *testing.T) {
	// Whatever the policy proposes, the trace audited after the fact
	// must stay within the configured (f, t) budget — Definition 3
	// enforced end to end.
	for seed := int64(0); seed < 30; seed++ {
		budget := fault.NewFixedBudget([]int{0, 1}, 2)
		res, err := consensus(run.Settings{
			Protocol:  core.NewStaged(2, 2),
			Inputs:    benchInputs(3),
			Scheduler: sim.NewRandom(seed),
			Budget:    budget,
			Policy:    fault.WhenEffective(fault.Rate(fault.Overriding, 0.8, seed)),
			Trace:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		audit := spec.AuditTrace(res.Sim.Log)
		if !audit.Tolerable(2, 2) {
			t.Fatalf("seed %d: execution exceeded (2,2): %s", seed, audit)
		}
		// The audit's per-object counts must equal the budget's.
		for _, id := range audit.FaultyObjects() {
			if audit.ObjectFaults(id) != budget.Faults(id) {
				t.Fatalf("seed %d: audit says %d faults on object %d, budget says %d",
					seed, audit.ObjectFaults(id), id, budget.Faults(id))
			}
		}
	}
}

package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// The paper's consistency proof for Figure 3 rests on a chain of claims
// about executions (Claims 7–17). These tests check the *checkable* ones as
// trace invariants over many adversarial random executions — a second,
// independent line of evidence that the transcription implements the
// protocol whose properties the paper proves.

// stagedTrace runs one staged execution and returns its event log.
func stagedTrace(t *testing.T, f, tt int, seed int64) *trace.Log {
	t.Helper()
	allObjs := make([]int, f)
	for i := range allObjs {
		allObjs[i] = i
	}
	res, err := run.ConsensusContext(context.Background(), &run.Settings{
		Protocol:  core.NewStaged(f, tt),
		Inputs:    distinctInputs(f + 1),
		Scheduler: sim.NewRandom(seed),
		Budget:    fault.NewFixedBudget(allObjs, tt),
		Policy:    fault.WhenEffective(fault.Rate(fault.Overriding, 0.4, seed)),
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("seed %d: %s", seed, res.Verdict)
	}
	return res.Sim.Log
}

func forEachStagedTrace(t *testing.T, visit func(f, tt int, seed int64, log *trace.Log)) {
	t.Helper()
	for _, cfg := range []struct{ f, t int }{{1, 1}, {2, 1}, {2, 2}} {
		for seed := int64(0); seed < 30; seed++ {
			visit(cfg.f, cfg.t, seed, stagedTrace(t, cfg.f, cfg.t, seed))
		}
	}
}

// Claim 7: every value written to any object (and hence every output) is
// the input of some process, and stages lie in [0, maxStage].
func TestClaim7WritesCarryInputsAndLegalStages(t *testing.T) {
	forEachStagedTrace(t, func(f, tt int, seed int64, log *trace.Log) {
		maxStage := core.NewStaged(f, tt).MaxStage()
		inputs := map[int64]bool{}
		for _, in := range distinctInputs(f + 1) {
			inputs[in] = true
		}
		for _, e := range log.Events() {
			if e.Kind != trace.EventCAS || !e.Wrote() {
				continue
			}
			if !inputs[e.Post.Value()] {
				t.Fatalf("f=%d t=%d seed=%d: wrote non-input value %s", f, tt, seed, e.Post)
			}
			if s := e.Post.Stage(); s < 0 || s > maxStage {
				t.Fatalf("f=%d t=%d seed=%d: wrote illegal stage %d", f, tt, seed, s)
			}
		}
	})
}

// Claim 13 (contrapositive, checkable form): every successful NON-FAULTY
// write strictly increases the object's stage. Only overriding writes may
// install an older-or-equal stage.
func TestClaim13NonFaultyWritesRaiseStages(t *testing.T) {
	forEachStagedTrace(t, func(f, tt int, seed int64, log *trace.Log) {
		for _, e := range log.Events() {
			if e.Kind != trace.EventCAS || !e.Wrote() || e.Fault != fault.None {
				continue
			}
			if e.Post.Stage() <= e.Pre.Stage() {
				t.Fatalf("f=%d t=%d seed=%d: non-faulty write lowered stage: %s",
					f, tt, seed, e)
			}
		}
	})
}

// Claim 8: each process's written stage never decreases over its own steps.
func TestClaim8PerProcessStagesMonotone(t *testing.T) {
	forEachStagedTrace(t, func(f, tt int, seed int64, log *trace.Log) {
		last := map[int]int64{}
		for _, e := range log.Events() {
			if e.Kind != trace.EventCAS {
				continue
			}
			s := e.New.Stage()
			if prev, ok := last[e.Proc]; ok && s < prev {
				t.Fatalf("f=%d t=%d seed=%d: p%d wrote stage %d after %d",
					f, tt, seed, e.Proc, s, prev)
			}
			last[e.Proc] = s
		}
	})
}

// Claim 9 (first half): a process attempts stage s on object i only after
// stage s was attempted on every lower-indexed object — writes sweep the
// objects in order within a stage.
func TestClaim9StagesSweepObjectsInOrder(t *testing.T) {
	forEachStagedTrace(t, func(f, tt int, seed int64, log *trace.Log) {
		if f == 1 {
			return // vacuous with one object
		}
		maxStage := core.NewStaged(f, tt).MaxStage()
		// written[s][i] = some process wrote ⟨·, s⟩ to O_i.
		written := map[int64]map[int]bool{}
		for _, e := range log.Events() {
			if e.Kind != trace.EventCAS || !e.Wrote() {
				continue
			}
			s := e.Post.Stage()
			if s == maxStage {
				continue // the final stage touches only O_0 by design
			}
			if written[s] == nil {
				written[s] = map[int]bool{}
			}
			written[s][e.Object] = true
			for k := 0; k < e.Object; k++ {
				if !written[s][k] {
					t.Fatalf("f=%d t=%d seed=%d: stage %d reached O%d before O%d\n%s",
						f, tt, seed, s, e.Object, k, log)
				}
			}
		}
	})
}

// The audit ties it together: every staged execution stays within its
// declared (f, t) budget and every event classifies cleanly.
func TestStagedExecutionsAuditClean(t *testing.T) {
	forEachStagedTrace(t, func(f, tt int, seed int64, log *trace.Log) {
		a := spec.AuditTrace(log)
		if len(a.Mismatches) != 0 {
			t.Fatalf("f=%d t=%d seed=%d: %d classification mismatches", f, tt, seed, len(a.Mismatches))
		}
		if !a.Tolerable(f, tt) {
			t.Fatalf("f=%d t=%d seed=%d: execution exceeded its budget: %s", f, tt, seed, a)
		}
	})
}

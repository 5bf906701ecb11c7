package run

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestOptionsBuildSettings(t *testing.T) {
	var events int
	s := NewSettings(
		WithProtocol(core.NewStaged(1, 1)),
		WithDistinctInputs(3),
		WithAllObjectsFaulty(2),
		WithFaultKind(fault.Silent),
		WithTrace(),
		WithObserver(func(trace.Event) { events++ }),
		WithStepLimit(40),
		WithMaxExecutions(1234),
		WithWorkers(4),
		WithQuick(true),
		WithSeed(7),
	)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Inputs) != 3 || s.Inputs[0] != 10 || s.Inputs[2] != 12 {
		t.Errorf("inputs = %v, want canonical 10..12", s.Inputs)
	}
	if len(s.FaultyObjects) != s.Protocol.Objects() || s.FaultsPerObject != 2 {
		t.Errorf("faulty set = %v (t=%d), want all %d objects with t=2",
			s.FaultyObjects, s.FaultsPerObject, s.Protocol.Objects())
	}
	if s.Kind != fault.Silent || !s.Trace || s.StepLimit != 40 ||
		s.MaxExecutions != 1234 || s.Workers != 4 || !s.Quick || s.Seed != 7 {
		t.Errorf("settings not applied: %+v", s)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := NewSettings(WithDistinctInputs(2)).Validate(); err == nil {
		t.Error("missing protocol must fail validation")
	}
	if err := NewSettings(WithProtocol(core.SingleCAS{})).Validate(); err == nil {
		t.Error("missing inputs must fail validation")
	}
}

func TestOptionsAllObjectsFaultyRequiresProtocol(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithAllObjectsFaulty before WithProtocol must panic")
		}
	}()
	NewSettings(WithAllObjectsFaulty(1))
}

// TestConsensusWithMatchesLegacyConfig: the options front door and a
// Settings literal must produce identical executions.
func TestConsensusWithMatchesLegacyConfig(t *testing.T) {
	viaOptions, err := ConsensusWith(
		WithProtocol(core.SingleCAS{}),
		WithInputs(1, 2),
		WithTrace(),
	)
	if err != nil {
		t.Fatal(err)
	}
	viaConfig, err := consensus(Settings{
		Protocol: core.SingleCAS{},
		Inputs:   []int64{1, 2},
		Trace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !viaOptions.Verdict.OK() || !viaConfig.Verdict.OK() {
		t.Fatalf("verdicts: options=%s config=%s", viaOptions.Verdict, viaConfig.Verdict)
	}
	if viaOptions.Verdict.Agreed != viaConfig.Verdict.Agreed {
		t.Errorf("agreed values differ: %s vs %s",
			viaOptions.Verdict.Agreed, viaConfig.Verdict.Agreed)
	}
}

// TestConsensusContextCancelPropagates is the regression test for the
// silently-evaluated partial result bug: Consensus used to check only
// res == nil and would evaluate a cancelled execution's truncated result as
// if it had completed. A cancelled context must surface ctx.Err() alongside
// the partial result.
func TestConsensusContextCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	grants := 0
	sched := sim.SchedulerFunc(func(enabled []int) (int, bool) {
		grants++
		if grants == 2 {
			cancel()
		}
		return enabled[0], true
	})
	res, err := ConsensusContext(ctx, &Settings{
		Protocol:  core.NewStaged(1, 1),
		Inputs:    []int64{1, 2},
		Scheduler: sched,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Sim == nil {
		t.Fatal("partial result not returned alongside the error")
	}
	if !res.Sim.Stopped {
		t.Error("partial result not marked Stopped")
	}
}

package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/refsim"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzCompiledVsInterpreted drives random (protocol, schedule, fault) triples
// through both execution forms — the protocol's Decide on the goroutine-gated
// reference simulator (refsim.RunContext) and the compiled Stepper machines that
// run.ConsensusContext drives — and fails on any divergence in decisions,
// per-process step counts, stall/stop status, verdicts, or the full trace
// event log. It is the randomized complement of the exhaustive sweep in the
// explore package's TestCompiledMatchesInterpreted: the sweep certifies
// small configurations completely, the fuzzer hunts for divergence in
// corners the sweep's fixed configurations never reach (adversarial halts,
// byte-shaped interleavings, every fault kind including nonresponsive
// stalls).
func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), []byte{0, 1, 0, 1}, []byte{1, 0})
	f.Add(uint8(3), uint8(1), uint8(0), []byte{1, 1, 0, 0, 2}, []byte{1, 1, 1})
	f.Add(uint8(5), uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0}, []byte{1, 1, 1, 1})
	f.Add(uint8(4), uint8(2), uint8(2), []byte{2, 1, 0, 2, 1, 0}, []byte{0, 1, 0, 1})
	f.Add(uint8(1), uint8(2), uint8(3), []byte{0, 1, 2, 0xff}, []byte{1})
	f.Fuzz(func(t *testing.T, protoSel, nSel, kindSel uint8, sched, faults []byte) {
		proto := fuzzProtocol(protoSel)
		kind := fuzzKind(kindSel)
		n := 1 + int(nSel%3)
		inputs := make([]int64, n)
		for i := range inputs {
			inputs[i] = int64(10 + i)
		}

		ires, ierr := fuzzReference(proto, inputs, kind, sched, faults)
		cres, cerr := fuzzRun(proto, inputs, kind, sched, faults)
		if (ierr == nil) != (cerr == nil) || (ierr != nil && ierr.Error() != cerr.Error()) {
			t.Fatalf("errors diverge: interpreted %v, compiled %v", ierr, cerr)
		}
		if ierr != nil {
			return
		}

		iv, cv := ires.Verdict, cres.Verdict
		if iv.Violation != cv.Violation || iv.Detail != cv.Detail ||
			iv.Agreed != cv.Agreed || iv.Stopped != cv.Stopped ||
			!reflect.DeepEqual(iv.Decided, cv.Decided) ||
			!reflect.DeepEqual(iv.Decisions, cv.Decisions) {
			t.Fatalf("verdicts diverge:\ninterpreted: %s (stopped=%v)\ncompiled:    %s (stopped=%v)",
				iv.String(), iv.Stopped, cv.String(), cv.Stopped)
		}
		if !reflect.DeepEqual(ires.Sim.Steps, cres.Sim.Steps) {
			t.Fatalf("step counts diverge: interpreted %v, compiled %v",
				ires.Sim.Steps, cres.Sim.Steps)
		}
		if !reflect.DeepEqual(ires.Sim.Stalled, cres.Sim.Stalled) {
			t.Fatalf("stalls diverge: interpreted %v, compiled %v",
				ires.Sim.Stalled, cres.Sim.Stalled)
		}
		iev, cev := ires.Sim.Log.Events(), cres.Sim.Log.Events()
		if len(iev) != len(cev) {
			t.Fatalf("trace lengths diverge: interpreted %d events, compiled %d", len(iev), len(cev))
		}
		for i := range iev {
			if iev[i] != cev[i] {
				t.Fatalf("trace event %d diverges:\ninterpreted: %s\ncompiled:    %s",
					i, iev[i], cev[i])
			}
		}
	})
}

// fuzzRun executes the compiled form. The scheduler and policy are rebuilt
// from the same bytes for each form, so both consume identical decision
// streams.
func fuzzRun(proto core.Protocol, inputs []int64, kind fault.Kind, sched, faults []byte) (*run.Result, error) {
	return run.ConsensusContext(context.Background(), &run.Settings{
		Protocol:  proto,
		Inputs:    inputs,
		Scheduler: &byteSched{bytes: sched},
		Budget:    fuzzBudget(proto),
		Policy:    bytePolicy(kind, faults),
		Trace:     true,
	})
}

// fuzzReference executes the reference form: Decide on the goroutine-gated
// simulator, evaluated the way run.ConsensusContext evaluates a compiled
// run (a wait-freedom violation is part of the verdict, any other error is
// returned).
func fuzzReference(proto core.Protocol, inputs []int64, kind fault.Kind, sched, faults []byte) (*run.Result, error) {
	bank := object.NewBank(proto.Objects(), fuzzBudget(proto), bytePolicy(kind, faults))
	res, err := refsim.RunContext(context.Background(), refsim.Config{
		Programs:  refsim.Programs(proto, bank, inputs),
		Scheduler: &byteSched{bytes: sched},
		StepLimit: proto.StepBound(len(inputs)),
		Log:       trace.New(),
	})
	if err != nil && res == nil {
		return nil, err
	}
	result := &run.Result{Sim: res, Verdict: run.Evaluate(inputs, res, err), Bank: bank}
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		return result, err
	}
	return result, nil
}

// fuzzBudget admits two faults on every object of the protocol.
func fuzzBudget(proto core.Protocol) *fault.Budget {
	ids := make([]int, proto.Objects())
	for i := range ids {
		ids[i] = i
	}
	return fault.NewFixedBudget(ids, 2)
}

func fuzzProtocol(sel uint8) core.Protocol {
	switch sel % 6 {
	case 0:
		return core.SingleCAS{}
	case 1:
		return core.NewFPlusOne(1)
	case 2:
		return core.NewFPlusOne(2)
	case 3:
		return core.NewStaged(1, 1)
	case 4:
		return core.NewStaged(2, 1)
	default:
		return core.NewSilentRetry(2)
	}
}

func fuzzKind(sel uint8) fault.Kind {
	switch sel % 4 {
	case 0:
		return fault.Overriding
	case 1:
		return fault.Silent
	case 2:
		return fault.Invisible
	default:
		return fault.Nonresponsive
	}
}

// byteSched picks among enabled processes by consuming one byte per step;
// 0xff is the adversarial halt, byte exhaustion falls back to the lowest
// enabled id (deterministically, so both forms see the same tail).
type byteSched struct {
	bytes []byte
	pos   int
}

// Next implements sim.Scheduler.
func (s *byteSched) Next(enabled []int) (int, bool) {
	if s.pos >= len(s.bytes) {
		return enabled[0], true
	}
	b := s.bytes[s.pos]
	s.pos++
	if b == 0xff {
		return 0, false
	}
	return enabled[int(b)%len(enabled)], true
}

// bytePolicy proposes the given fault kind on invocations whose next byte is
// odd; byte exhaustion means no further faults.
func bytePolicy(kind fault.Kind, bytes []byte) fault.Policy {
	pos := 0
	return fault.PolicyFunc(func(fault.Op) fault.Proposal {
		if pos >= len(bytes) {
			return fault.NoFault
		}
		b := bytes[pos]
		pos++
		if b&1 == 1 {
			return fault.Proposal{Kind: kind}
		}
		return fault.NoFault
	})
}

// Package run wires a consensus protocol to the deterministic simulator and
// evaluates the consensus correctness conditions of Section 2 of the paper:
// validity (the decision is some process's input), consistency (all deciders
// agree), and wait-freedom (every process decides within its step bound).
package run

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// Programs builds one simulator program per input value, each executing the
// protocol against the shared bank.
func Programs(proto core.Protocol, bank Bank, inputs []int64) []sim.Program {
	progs := make([]sim.Program, len(inputs))
	for i, input := range inputs {
		input := input
		progs[i] = func(p *sim.Proc) word.Word {
			return word.FromValue(proto.Decide(bank.Bind(p), input))
		}
	}
	return progs
}

// BoundPrograms builds one program per input value with the object
// environment pre-bound to the arena's stable process handles, so repeated
// replays do not allocate a binding per program invocation. The returned
// programs are tied to those handles: they must only run on the arena that
// produced procs (procs[i] is the handle the arena passes to program i).
func BoundPrograms(proto core.Protocol, bank Bank, inputs []int64, procs []*sim.Proc) []sim.Program {
	if len(procs) != len(inputs) {
		panic(fmt.Sprintf("run: %d process handles for %d inputs", len(procs), len(inputs)))
	}
	progs := make([]sim.Program, len(inputs))
	for i, input := range inputs {
		input := input
		env := bank.Bind(procs[i])
		progs[i] = func(*sim.Proc) word.Word {
			return word.FromValue(proto.Decide(env, input))
		}
	}
	return progs
}

// Result bundles the simulation outcome with its verdict.
type Result struct {
	Sim     *sim.Result
	Verdict Verdict
	Bank    *object.Bank
}

// ConsensusContext runs one execution described by the settings and
// evaluates it. An error is returned only for framework-level failures
// (program panic, cancellation); a wait-freedom violation is reported
// through the verdict, since for the impossibility experiments a violation
// is the expected observation, not an error. When ctx is cancelled
// mid-execution the partial result is returned together with ctx.Err().
//
// The fault budget is Settings.Budget, or else (FaultyObjects,
// FaultsPerObject); without either no fault is admitted.
func ConsensusContext(ctx context.Context, s *Settings) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sched := s.Scheduler
	if sched == nil {
		sched = sim.NewRoundRobin()
	}
	compiled, err := ResolveExec(s.Exec, s.Protocol)
	if err != nil {
		return nil, err
	}
	budget := s.Budget
	if budget == nil && len(s.FaultyObjects) > 0 {
		budget = fault.NewFixedBudget(s.FaultyObjects, s.FaultsPerObject)
	}
	bank := object.NewBank(s.Protocol.Objects(), budget, s.Policy)

	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}

	var res *sim.Result
	if compiled {
		stepper, _ := core.Compile(s.Protocol)
		steppedCfg := sim.SteppedConfig{
			Procs:     len(s.Inputs),
			Program:   NewSteppedExec(stepper, bank, s.Inputs),
			Scheduler: sched,
			StepLimit: limit,
			Observer:  s.Observer,
		}
		if s.Trace {
			steppedCfg.Log = trace.New()
		}
		res, err = sim.RunStepped(ctx, steppedCfg)
	} else {
		simCfg := sim.Config{
			Programs:  Programs(s.Protocol, bank, s.Inputs),
			Scheduler: sched,
			StepLimit: limit,
			Observer:  s.Observer,
		}
		if s.Trace {
			simCfg.Log = trace.New()
		}
		res, err = sim.RunContext(ctx, simCfg)
	}
	if err != nil && res == nil {
		return nil, err
	}
	verdict := Evaluate(s.Inputs, res, err)
	result := &Result{Sim: res, Verdict: verdict, Bank: bank}
	// A wait-freedom violation is folded into the verdict (it is an
	// observation, not a failure). Any other partial-result error —
	// cancellation, a future simulator condition — must reach the caller:
	// silently evaluating the truncated execution would report a verdict
	// for an execution that never ran to its end.
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		return result, err
	}
	return result, nil
}

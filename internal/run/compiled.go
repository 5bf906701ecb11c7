package run

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// SteppedExec adapts a compiled protocol to the sim stepped runner: one
// core.Stepper shared by all processes, one State and one bank-bound
// environment per process. It is reusable across executions — Begin
// re-initializes a process's machine — provided the bank is Reset between
// executions by the caller.
type SteppedExec struct {
	stepper core.Stepper
	inputs  []int64
	states  []core.State
	envs    []steppedEnv
}

// NewSteppedExec builds the adapter for one (stepper, bank, inputs) triple.
func NewSteppedExec(stepper core.Stepper, bank *object.Bank, inputs []int64) *SteppedExec {
	x := &SteppedExec{
		stepper: stepper,
		inputs:  inputs,
		states:  make([]core.State, len(inputs)),
		envs:    make([]steppedEnv, len(inputs)),
	}
	for i := range x.envs {
		x.envs[i] = steppedEnv{bank: bank, proc: i}
	}
	return x
}

// Begin implements sim.SteppedProgram.
func (x *SteppedExec) Begin(id int) { x.states[id] = x.stepper.Begin(x.inputs[id]) }

// AppendStates appends every process's machine state to dst and returns
// the extended slice: the program's share of a between-steps snapshot.
func (x *SteppedExec) AppendStates(dst []core.State) []core.State {
	return append(dst, x.states...)
}

// RestoreStates rewinds every process's machine to the states AppendStates
// saved.
func (x *SteppedExec) RestoreStates(src []core.State) { copy(x.states, src) }

// Pending reports process id's next CAS as a sim.PendingOp, computed from
// the machine state: every compiled step is a declared CAS.
func (x *SteppedExec) Pending(id int) sim.PendingOp {
	obj, exp, new := x.stepper.Pending(&x.states[id])
	return sim.PendingOp{Obj: obj, Exp: exp, New: new}
}

// Step implements sim.SteppedProgram: one Stepper step against the bank.
// A nonresponsive fault surfaces as a stalled outcome, exactly like the
// reference simulator's process stalling inside its CAS (refsim.Array);
// whatever the machine computed after the stalling CAS is discarded with it.
func (x *SteppedExec) Step(id int, rec *sim.StepRecorder) sim.StepOutcome {
	env := &x.envs[id]
	env.rec = rec
	env.stalled = false
	done, decided := x.stepper.Step(&x.states[id], env)
	env.rec = nil
	if env.stalled {
		return sim.StepOutcome{Stalled: true}
	}
	if done {
		return sim.StepOutcome{Done: true, Decision: word.FromValue(decided)}
	}
	return sim.StepOutcome{}
}

// steppedEnv is the core.Env one process sees on the compiled path: each
// CAS applies the object's full fault pipeline directly (the stepped runner
// granted this step, so no scheduling handshake is needed) and records the
// event, mirroring the reference's refsim.Array.CAS minus the park. When the
// recorder has neither a log nor an observer, no event is built at all.
type steppedEnv struct {
	bank    *object.Bank
	proc    int
	rec     *sim.StepRecorder
	stalled bool
}

// CAS implements core.Env.
func (e *steppedEnv) CAS(i int, exp, new word.Word) word.Word {
	var old word.Word
	var kind fault.Kind
	if e.rec.Recording() {
		var ev trace.Event
		old, ev = e.bank.Object(i).Apply(e.proc, exp, new)
		e.rec.Record(ev)
		kind = ev.Fault
	} else {
		old, kind = e.bank.Object(i).Do(e.proc, exp, new)
	}
	if kind == fault.Nonresponsive {
		e.stalled = true
	}
	return old
}

// Len implements core.Env.
func (e *steppedEnv) Len() int { return e.bank.Len() }

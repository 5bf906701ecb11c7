package run

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/word"
)

// ExecMode selects which execution form drives the protocol: the compiled
// step machines (core.Stepper on the sim stepped runner) or the
// goroutine-gated reference simulator. The two forms are observationally
// identical — same verdicts, traces, and counterexamples — so the mode only
// changes speed; it still participates in manifests and trace meta so that
// replays and resumes run under the form that produced an artifact.
type ExecMode int

const (
	// ExecAuto (the default) uses the compiled form when the protocol
	// provides a Stepper and falls back to the goroutine path otherwise.
	ExecAuto ExecMode = iota
	// ExecInterpreted forces the goroutine-gated reference simulator.
	ExecInterpreted
	// ExecCompiled requires the compiled form; drivers refuse protocols
	// without a Stepper.
	ExecCompiled
)

// String renders the mode as its meta/flag spelling.
func (m ExecMode) String() string {
	switch m {
	case ExecInterpreted:
		return "interpreted"
	case ExecCompiled:
		return "compiled"
	default:
		return "auto"
	}
}

// ParseExecMode is the inverse of ExecMode.String (CLI flags, trace meta).
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "auto":
		return ExecAuto, nil
	case "interpreted", "goroutine":
		return ExecInterpreted, nil
	case "compiled":
		return ExecCompiled, nil
	default:
		return ExecAuto, fmt.Errorf("run: unknown execution form %q (want auto, compiled, or interpreted)", s)
	}
}

// ResolveExec resolves the mode against a protocol: whether the compiled
// form runs. ExecCompiled fails when the protocol has no Stepper.
func ResolveExec(mode ExecMode, p core.Protocol) (compiled bool, err error) {
	switch mode {
	case ExecInterpreted:
		return false, nil
	case ExecCompiled:
		if _, ok := core.Compile(p); !ok {
			return false, fmt.Errorf("run: protocol %s has no compiled form (core.Stepper)", p.Name())
		}
		return true, nil
	default:
		_, ok := core.Compile(p)
		return ok, nil
	}
}

// ExecLabel renders the resolved execution form for manifests and trace
// meta ("compiled" or "interpreted").
func ExecLabel(compiled bool) string {
	if compiled {
		return "compiled"
	}
	return "interpreted"
}

// SteppedExec adapts a compiled protocol to the sim stepped runner: one
// core.Stepper shared by all processes, one State and one bank-bound
// environment per process. It is reusable across executions the same way
// BoundPrograms is — Begin re-initializes a process's machine — provided
// the bank is Reset between executions by the caller.
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

// Pending reports process id's next CAS as a sim.PendingOp — the same
// metadata the goroutine form publishes via Proc.ExecCAS, recomputed from
// the machine state. Always Known: every compiled step is a declared CAS.
func (x *SteppedExec) Pending(id int) sim.PendingOp {
	obj, exp, new := x.stepper.Pending(&x.states[id])
	return sim.PendingOp{Known: true, Obj: obj, Exp: exp, New: new}
}

// Footprint reports the object interval process id's remaining execution
// may touch (core.Stepper.Footprint on its current state).
func (x *SteppedExec) Footprint(id int) (lo, hi int) {
	return x.stepper.Footprint(&x.states[id])
}

// Step implements sim.SteppedProgram: one Stepper step against the bank.
// A nonresponsive fault surfaces as a stalled outcome, exactly like
// object.CAS.Invoke stalling the goroutine-gated process; whatever the
// machine computed after the stalling CAS is discarded with it.
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
// event, mirroring object.CAS.Invoke minus the park.
type steppedEnv struct {
	bank    *object.Bank
	proc    int
	rec     *sim.StepRecorder
	stalled bool
}

// CAS implements core.Env.
func (e *steppedEnv) CAS(i int, exp, new word.Word) word.Word {
	old, ev := e.bank.Object(i).Apply(e.proc, exp, new)
	e.rec.Record(ev)
	if ev.Fault == fault.Nonresponsive {
		e.stalled = true
	}
	return old
}

// Len implements core.Env.
func (e *steppedEnv) Len() int { return e.bank.Len() }

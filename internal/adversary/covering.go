// Package adversary implements the paper's impossibility proofs as
// executable adversaries: programs that drive an arbitrary consensus
// protocol through the worst-case executions constructed in Sections 5.1
// and 5.2, plus the data-fault adversary of Afek et al. used to demonstrate
// that functional faults are strictly more expressive than data faults.
package adversary

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// CoveringResult reports the outcome of the Theorem 19 covering execution.
type CoveringResult struct {
	// Verdict is the consensus evaluation over the deciding processes.
	Verdict run.Verdict
	// Covered lists the objects overridden by p1..pf, in cover order.
	Covered []int
	// HaltedAfterSteps[i] is the number of steps coverer i+1 took before
	// being halted.
	HaltedAfterSteps []int
	// Trace is the full event log.
	Trace *trace.Log
	// Sim is the raw simulation result.
	Sim *sim.Result
}

// Violated reports whether the adversary produced a consensus violation.
func (r *CoveringResult) Violated() bool { return !r.Verdict.OK() }

// Covering executes the covering argument from the proof of Theorem 19
// against an arbitrary protocol using f CAS objects, with n = f+2 processes
// (inputs[0] ≠ inputs[i] for i ≥ 1, as the proof assumes):
//
//  1. p0 runs alone until it decides (wait-freedom + validity force it to
//     decide its own input).
//  2. For i = 1..f, p_i runs alone until its first CAS on an object not yet
//     written by p_1..p_{i-1}; that CAS manifests an overriding fault
//     (writing p_i's value over whatever p_0 left there), and p_i is halted
//     immediately. Claim 20 guarantees each p_i reaches such a CAS.
//  3. p_{f+1} runs alone until it decides. All of p0's writes have been
//     overridden, so the run is indistinguishable (to p_{f+1}) from one in
//     which p0 never ran — it must decide some v ∈ {v1..v_{f+1}}, while p0
//     decided v0: a consistency violation.
//
// Exactly one fault per covered object is used (t = 1), and at most f
// objects fault, so the execution stays inside the (f, 1) budget — the
// theorem's point is that budget-respecting faults already kill any
// f-object protocol once n ≥ f+2.
//
// Covering works against any Protocol with a compiled form (core.Steppable,
// which every protocol here has) and refuses one without; the paper proves
// a violation must exist for every protocol that would be
// (f, t, f+2)-tolerant, and for the paper's own constructions this
// adversary finds it directly.
func Covering(proto core.Protocol, inputs []int64) (*CoveringResult, error) {
	f := proto.Objects()
	if len(inputs) != f+2 {
		return nil, fmt.Errorf("adversary: covering needs n = f+2 = %d inputs, got %d", f+2, len(inputs))
	}
	return coveringRun(proto, inputs, false)
}

// CoveringTightness runs the same cover with only n = f+1 processes
// (p0 plus the f coverers) and then resumes the halted coverers to
// completion. Theorem 6 says the protocol must still reach agreement —
// demonstrating that the covering attack is powerless below the f+2
// process threshold, i.e. the bound is tight.
func CoveringTightness(proto core.Protocol, inputs []int64) (*CoveringResult, error) {
	f := proto.Objects()
	if len(inputs) != f+1 {
		return nil, fmt.Errorf("adversary: tightness needs n = f+1 = %d inputs, got %d", f+1, len(inputs))
	}
	return coveringRun(proto, inputs, true)
}

// setup is one adversary execution before it runs: the inputs and the bank
// it runs on, and the scheduler, observer, log and step limit that drive
// and record it (its SteppedConfig, all but the Program). Each adversary
// builds its setup with one constructor (newCovering, newDataFault) and
// runs it on the protocol's compiled step machines (runStepped).
type setup struct {
	sim.SteppedConfig
	inputs []int64
	bank   *object.Bank
}

// runStepped executes the setup on the protocol's compiled step machines.
// A protocol without a core.Stepper is refused.
func runStepped(proto core.Protocol, a *setup) (*sim.Result, error) {
	stepper, ok := core.Compile(proto)
	if !ok {
		return nil, fmt.Errorf("adversary: protocol %s has no compiled form (core.Stepper)", proto.Name())
	}
	cfg := a.SteppedConfig
	cfg.Program = run.NewSteppedExec(stepper, a.bank, a.inputs)
	return sim.RunStepped(context.Background(), cfg)
}

// coveringState is shared by the scheduler, fault policy, and observer of
// one covering execution. The runner serializes all steps, so no locking
// is needed.
type coveringState struct {
	f int

	// phase: 0 = p0 solo; 1..f = coverer p_phase solo; f+1 = prober solo
	// (covering mode) or resume-all (tightness mode).
	phase int

	// writtenByCoverers[obj] reports that some coverer p_1..p_{i-1} wrote
	// to obj ("written" in the proof's sense: the register content was
	// replaced by that process).
	writtenByCoverers map[int]bool

	// halted[i] marks coverer i as halted by the adversary.
	halted []bool

	covered    []int
	haltSteps  []int
	stepsTaken []int

	resume bool
}

func (st *coveringState) currentCoverer() int { return st.phase }

// fresh reports whether the object has not yet been written by the coverers
// that precede the current one.
func (st *coveringState) fresh(obj int) bool { return !st.writtenByCoverers[obj] }

func coveringRun(proto core.Protocol, inputs []int64, tightness bool) (*CoveringResult, error) {
	st, a := newCovering(proto, inputs, tightness)
	res, err := runStepped(proto, a)
	if err != nil && res == nil {
		return nil, err
	}
	return &CoveringResult{
		Verdict:          run.Evaluate(inputs, res, err),
		Covered:          st.covered,
		HaltedAfterSteps: st.haltSteps,
		Trace:            a.Log,
		Sim:              res,
	}, nil
}

// newCovering builds one covering execution: its state, and the setup whose
// scheduler, fault policy and observer carry out the proof's phases.
func newCovering(proto core.Protocol, inputs []int64, tightness bool) (*coveringState, *setup) {
	f := proto.Objects()
	n := len(inputs)
	st := &coveringState{
		f:                 f,
		writtenByCoverers: make(map[int]bool),
		halted:            make([]bool, n),
		stepsTaken:        make([]int, n),
		resume:            tightness,
	}

	budget := fault.NewBudget(f, 1)
	policy := fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if st.phase >= 1 && st.phase <= st.f && op.Proc == st.currentCoverer() &&
			st.fresh(op.Object) && op.Current != op.Exp {
			return fault.Proposal{Kind: fault.Overriding}
		}
		return fault.NoFault
	})
	a := &setup{
		SteppedConfig: sim.SteppedConfig{Procs: n, Log: trace.New(), StepLimit: proto.StepBound(n) + 8},
		inputs:        inputs,
		bank:          object.NewBank(f, budget, policy),
	}

	a.Observer = func(e trace.Event) {
		if e.Kind != trace.EventCAS {
			return
		}
		st.stepsTaken[e.Proc]++
		inCoverPhase := st.phase >= 1 && st.phase <= st.f
		if inCoverPhase && e.Proc == st.currentCoverer() && st.fresh(e.Object) {
			// First CAS by the current coverer on a fresh object:
			// the policy forced an override (or the CAS matched and
			// wrote naturally). Either way the object is covered
			// and the coverer is halted on the spot.
			st.writtenByCoverers[e.Object] = true
			st.covered = append(st.covered, e.Object)
			st.haltSteps = append(st.haltSteps, st.stepsTaken[e.Proc])
			st.halted[e.Proc] = true
			a.Log.Append(trace.Event{Kind: trace.EventHalt, Proc: e.Proc})
			st.phase++
		}
	}

	a.Scheduler = sim.SchedulerFunc(func(enabled []int) (int, bool) {
		isEnabled := func(id int) bool {
			for _, e := range enabled {
				if e == id {
					return true
				}
			}
			return false
		}
		for {
			switch {
			case st.phase == 0:
				if isEnabled(0) {
					return 0, true
				}
				st.phase = 1
			case st.phase >= 1 && st.phase <= st.f:
				id := st.currentCoverer()
				if id < n && !st.halted[id] && isEnabled(id) {
					return id, true
				}
				st.phase++
			default:
				if st.resume {
					// Tightness mode: release every halted
					// coverer and run round-robin to the end.
					for _, id := range enabled {
						return id, true
					}
					return 0, false
				}
				prober := n - 1
				if isEnabled(prober) && !st.halted[prober] {
					return prober, true
				}
				return 0, false
			}
		}
	})
	return st, a
}

// ReducedModelPolicy returns the fault policy of the reduced model used in
// the proof of Theorem 18: every CAS executed by the designated process is
// faulty (overriding), and no other process ever causes a fault. Combined
// with an unbounded budget and the schedule explorer this realizes the
// proof's non-determinism-free adversary.
func ReducedModelPolicy(faultyProc int) fault.Policy {
	return fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if op.Proc == faultyProc && op.Current != op.Exp {
			return fault.Proposal{Kind: fault.Overriding}
		}
		return fault.NoFault
	})
}

// DataFaultResult reports the outcome of the data-fault comparison run.
type DataFaultResult struct {
	Verdict run.Verdict
	Trace   *trace.Log
}

// Violated reports whether the data fault produced a consensus violation.
func (r *DataFaultResult) Violated() bool { return !r.Verdict.OK() }

// DataFault executes the Afek-style data-fault adversary used in experiment
// E7 to separate the two fault models: process 0 runs solo to completion;
// then ONE data fault replaces the content of the given object with the
// given value (a data fault strikes at an arbitrary time, independently of
// any operation — exactly what a functional fault cannot do); then the
// remaining processes run to completion one after another, lowest id first.
//
// Against the paper's constructions a single well-aimed data fault breaks
// consistency in configurations where the model checker proves that any
// number of budget-respecting overriding faults cannot — the expressiveness
// gap of Section 4.
func DataFault(proto core.Protocol, inputs []int64, obj int, value word.Word) (*DataFaultResult, error) {
	if obj < 0 || obj >= proto.Objects() {
		return nil, fmt.Errorf("adversary: object %d out of range", obj)
	}
	a := newDataFault(proto, inputs, obj, value)
	res, err := runStepped(proto, a)
	if err != nil && res == nil {
		return nil, err
	}
	return &DataFaultResult{
		Verdict: run.Evaluate(inputs, res, err),
		Trace:   a.Log,
	}, nil
}

// newDataFault builds one data-fault execution: p0 solo, then the
// corruption, then the other processes, lowest enabled id first.
func newDataFault(proto core.Protocol, inputs []int64, obj int, value word.Word) *setup {
	n := len(inputs)
	a := &setup{
		SteppedConfig: sim.SteppedConfig{Procs: n, Log: trace.New(), StepLimit: proto.StepBound(n) + 8},
		inputs:        inputs,
		bank:          object.NewBank(proto.Objects(), nil, nil),
	}
	corrupted := false
	a.Scheduler = sim.SchedulerFunc(func(enabled []int) (int, bool) {
		for _, id := range enabled {
			if id == 0 {
				return 0, true
			}
		}
		if !corrupted {
			corrupted = true
			pre := a.bank.Object(obj).Corrupt(value)
			a.Log.Append(trace.Event{Kind: trace.EventCorrupt, Object: obj, Value: value, Pre: pre})
		}
		return enabled[0], true
	})
	return a
}

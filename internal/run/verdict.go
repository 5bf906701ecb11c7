package run

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/word"
)

// Violation identifies which consensus requirement an execution broke.
type Violation string

const (
	// ViolationNone means the execution satisfied all requirements that
	// apply to it.
	ViolationNone Violation = ""
	// ViolationValidity means some decision is not any process's input.
	ViolationValidity Violation = "validity"
	// ViolationConsistency means two deciders decided different values.
	ViolationConsistency Violation = "consistency"
	// ViolationWaitFreedom means a process exceeded its step bound (or
	// stalled) without deciding, while the execution was not stopped by
	// the adversary.
	ViolationWaitFreedom Violation = "wait-freedom"
)

// Verdict is the evaluation of one execution against the consensus
// specification.
type Verdict struct {
	// Violation is the first requirement found violated, or ViolationNone.
	Violation Violation
	// Detail is a human-readable explanation of the violation.
	Detail string
	// Decisions are the decided values of deciding processes, indexed by
	// process id (nil entries encoded via Decided).
	Decisions []word.Word
	// Decided mirrors sim.Result.Decided.
	Decided []bool
	// Agreed is the common decision when consistency holds and at least
	// one process decided.
	Agreed word.Word
	// Stopped reports the execution was cut short by the scheduler; an
	// undecided process is then not a wait-freedom violation.
	Stopped bool
}

// OK reports whether no requirement was violated.
func (v Verdict) OK() bool { return v.Violation == ViolationNone }

// String summarizes the verdict in one line.
func (v Verdict) String() string {
	if v.OK() {
		var ds []string
		for i, ok := range v.Decided {
			if ok {
				ds = append(ds, fmt.Sprintf("p%d=%s", i, v.Decisions[i]))
			}
		}
		return "OK [" + strings.Join(ds, " ") + "]"
	}
	return fmt.Sprintf("VIOLATION(%s): %s", v.Violation, v.Detail)
}

// Evaluate checks the consensus requirements over a completed simulation.
//
// Validity and consistency are judged over the processes that decided; an
// execution stopped early by the adversary is judged on its deciders only
// (that is the point of covering arguments: the survivors already disagree).
// Wait-freedom is judged only for executions that ran to completion: a
// process that neither decided nor was abandoned — i.e. it stalled or
// exceeded its step bound — is a wait-freedom violation.
//
// The returned Verdict aliases res.Decisions and res.Decided. When res is a
// reused arena result, callers retaining the verdict must clone those slices.
func Evaluate(inputs []int64, res *sim.Result, runErr error) Verdict {
	var v Verdict
	EvaluateInto(&v, inputs, res, runErr)
	return v
}

// EvaluateInto judges one execution into v, overwriting all of it; see
// Evaluate for the semantics and the aliasing caveat. A replay loop passes
// the same v for every leaf, so no Verdict is copied per leaf.
func EvaluateInto(v *Verdict, inputs []int64, res *sim.Result, runErr error) {
	// Field by field: a composite literal would be built aside and copied.
	v.Violation, v.Detail = ViolationNone, ""
	v.Decisions, v.Decided = res.Decisions, res.Decided
	v.Agreed, v.Stopped = word.Bottom, res.Stopped

	first := true
	for i, ok := range res.Decided {
		if !ok {
			continue
		}
		d := res.Decisions[i]
		if !valid(d, inputs) {
			v.Violation = ViolationValidity
			v.Detail = fmt.Sprintf("process %d decided %s, which is no process's input", i, d)
			return
		}
		if first {
			v.Agreed = d
			first = false
		} else if d != v.Agreed {
			v.Violation = ViolationConsistency
			v.Detail = fmt.Sprintf("process %d decided %s but an earlier process decided %s", i, d, v.Agreed)
			return
		}
	}

	if errors.Is(runErr, sim.ErrWaitFreedom) {
		v.Violation = ViolationWaitFreedom
		v.Detail = runErr.Error()
		return
	}
	if !res.Stopped {
		for i, ok := range res.Decided {
			if !ok {
				v.Violation = ViolationWaitFreedom
				v.Detail = fmt.Sprintf("process %d never decided", i)
				return
			}
		}
	}
}

// valid reports whether a decision is some process's input. A handful of
// processes makes scanning the input slice cheaper than any set lookup.
func valid(d word.Word, inputs []int64) bool {
	if d.IsBottom() {
		return false
	}
	for _, in := range inputs {
		if in == d.Value() {
			return true
		}
	}
	return false
}

// Package sim implements the shared-memory execution model of Section 2 of
// the paper as a deterministic simulator.
//
// A fixed collection of virtual processes communicates through shared
// objects. Each shared-object operation (invocation and response folded
// together) is one atomic step; between steps a process performs only local
// computation, which is invisible to other processes and therefore needs no
// scheduling decision. A pluggable Scheduler chooses which process takes the
// next step, so an execution is an alternating sequence of states and steps
// fully determined by (programs, scheduler choices, fault choices) — the
// property the model checker in internal/explore relies on.
//
// The runner is Stepped: it executes the protocols' compiled step machines
// (core.Stepper) in one loop on the calling goroutine. The reference
// semantics it is certified against, each protocol's Decide code on
// goroutine-gated processes, lives in internal/refsim, which only tests
// import.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/word"
)

// Scheduler picks the next process to take an atomic step.
type Scheduler interface {
	// Next receives the ids of processes currently able to step, sorted
	// ascending and non-empty, and returns the chosen id. Returning
	// ok=false stops the execution immediately, abandoning the remaining
	// processes — the adversarial "halt" used by covering arguments.
	Next(enabled []int) (id int, ok bool)
}

// SchedulerFunc adapts a function to the Scheduler interface.
type SchedulerFunc func(enabled []int) (int, bool)

// Next implements Scheduler.
func (f SchedulerFunc) Next(enabled []int) (int, bool) { return f(enabled) }

// DefaultStepLimit is the per-process step bound used when a configuration's
// StepLimit is zero. It is deliberately large: protocols declare their own
// bounds.
const DefaultStepLimit = 1 << 20

// Result describes a completed (or stopped) execution.
type Result struct {
	// Decided[i] reports whether process i returned a decision.
	Decided []bool
	// Decisions[i] is process i's decision value (valid when Decided[i]).
	Decisions []word.Word
	// Steps[i] is the number of atomic steps process i took.
	Steps []int
	// Stalled[i] reports that process i was parked forever by a
	// nonresponsive fault.
	Stalled []bool
	// Stopped reports that the scheduler abandoned the execution while
	// some processes had not decided.
	Stopped bool
	// Log is the recorded trace (nil if none was configured).
	Log *trace.Log
}

// ErrWaitFreedom reports a process exceeding its step limit: under a correct
// wait-free protocol and budget-respecting faults this must never happen.
var ErrWaitFreedom = errors.New("sim: step limit exceeded (wait-freedom violation)")

// PanicError wraps a panic raised inside a program.
type PanicError struct {
	Proc  int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %d panicked: %v", e.Proc, e.Value)
}

// PendingOp describes the CAS a process will perform on its next granted
// step: the object index and the exp/new arguments. A compiled program
// computes it from its machine state without taking the step
// (run.SteppedExec.Pending); the exploration engine's partial-order reducer
// reads it to decide which steps are independent.
type PendingOp struct {
	Obj int
	Exp word.Word
	New word.Word
}

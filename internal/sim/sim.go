// Package sim implements the shared-memory execution model of Section 2 of
// the paper as a deterministic cooperative simulator.
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
// Mechanically, every process runs in its own goroutine but is gated: before
// each atomic step it parks and waits for a grant from the runner. The runner
// grants exactly one process at a time, so the simulation is sequentially
// consistent and race-free by construction even though programs are written
// as ordinary straight-line Go code.
//
// The process goroutines live in an Arena, which is reusable: a reference
// sweep replays thousands of executions, and respawning goroutines and
// channels per replay would dominate its profile. (The model checker itself
// runs the compiled step machines on the stepped runner, see Stepped.) Run
// starts each slot's current program over the arena's long-lived
// goroutines; when an execution ends early, parked processes are unwound
// back to their slots with an abort grant, so the next Run starts from a
// clean arena. One-shot callers use Run/RunContext, which wrap a
// single-use Arena.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/word"
)

// Program is the code of one process: it receives its process handle and
// returns its decision value. Programs must be deterministic and must touch
// shared state only through Proc.Exec (shared objects do this internally).
type Program func(p *Proc) word.Word

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

// Config describes one execution.
type Config struct {
	// Programs holds one program per process; process ids are indices.
	Programs []Program
	// Scheduler chooses the interleaving. Required.
	Scheduler Scheduler
	// StepLimit bounds the number of atomic steps any single process may
	// take. Exceeding it is reported as a wait-freedom violation. 0 means
	// DefaultStepLimit.
	StepLimit int
	// Log, when non-nil, records every step. Shared objects append their
	// events through Proc.Record.
	Log *trace.Log
	// Observer, when non-nil, is called synchronously after each recorded
	// event. Adversaries use it to track protocol behaviour.
	Observer func(trace.Event)
}

// DefaultStepLimit is the per-process step bound used when Config.StepLimit
// is zero. It is deliberately large: protocols declare their own bounds.
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

// DecidedValues returns the decisions of all processes that decided.
func (r *Result) DecidedValues() []word.Word {
	var out []word.Word
	for i, ok := range r.Decided {
		if ok {
			out = append(out, r.Decisions[i])
		}
	}
	return out
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

type eventKind int

const (
	evParked   eventKind = iota // process waits for its next step grant
	evFinished                  // process returned a decision
	evStalled                   // process parked forever (nonresponsive fault)
	evPanicked                  // process panicked
	evAborted                   // process unwound back to its arena slot
)

type procEvent struct {
	id       int
	kind     eventKind
	decision word.Word
	panicVal any
}

// grantMsg is one step grant. abort unwinds the process back to its arena
// slot instead of granting the step (the execution ended without it).
type grantMsg struct {
	abort bool
}

// abortSignal is panicked inside abandoned process goroutines and recovered
// by the arena slot, which acknowledges the unwind with evAborted.
type abortSignal struct{}

// stallSignal is panicked by Proc.Stall to unwind a nonresponsive process.
type stallSignal struct{}

// Proc is the handle a program uses to interact with the simulation. Proc
// handles are owned by the arena and stable across its runs, so callers may
// bind per-process state (object environments) to them once.
type Proc struct {
	id int
	a  *Arena
}

// ID returns the process id (its index in Config.Programs).
func (p *Proc) ID() int { return p.id }

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

// Exec performs one atomic step: it parks until the scheduler grants this
// process the next step, runs op, and returns. op runs while the process
// exclusively holds the step token, so it may freely touch shared objects.
func (p *Proc) Exec(op func()) {
	a := p.a
	a.events <- procEvent{id: p.id, kind: evParked}
	if g := <-a.grant[p.id]; g.abort {
		panic(abortSignal{})
	}
	op()
}

// Record appends an event to the execution trace and notifies the observer.
// It must be called only from inside an Exec op (shared objects do).
func (p *Proc) Record(e trace.Event) { p.a.record(e) }

// Stall parks the process forever, modeling a nonresponsive fault: the
// operation never returns, and the process never decides. It must be called
// from inside an Exec op.
func (p *Proc) Stall() {
	panic(stallSignal{})
}

// Arena is a reusable pool of gated process goroutines plus the runner state
// of one execution. An Arena is built for a fixed process count; Run
// executes one configuration over it, and the same arena can run any number
// of executions in sequence. An Arena is not safe for concurrent Runs; give
// each goroutine its own.
type Arena struct {
	n      int
	procs  []*Proc
	start  []chan Program
	grant  []chan grantMsg
	events chan procEvent
	closed bool

	// Per-run state, reset by Run. The result slices are owned by the
	// arena: a Result returned by Run is valid only until the next Run.
	cfg       Config
	decided   []bool
	decisions []word.Word
	steps     []int
	stalled   []bool
	parked    []bool
	enabled   []int
	early     []int
	liveCount int // processes neither finished nor stalled nor panicked
	res       Result
}

// NewArena starts n process goroutines and returns the arena managing them.
// Callers must Close the arena to release the goroutines.
func NewArena(n int) *Arena {
	if n <= 0 {
		panic("sim: arena needs at least one process")
	}
	a := &Arena{
		n:     n,
		procs: make([]*Proc, n),
		start: make([]chan Program, n),
		grant: make([]chan grantMsg, n),
		// Buffered to n: every process has at most one unconsumed event
		// in flight, so sends never block and need no abort select.
		events:    make(chan procEvent, n),
		decided:   make([]bool, n),
		decisions: make([]word.Word, n),
		steps:     make([]int, n),
		stalled:   make([]bool, n),
		parked:    make([]bool, n),
		enabled:   make([]int, 0, n),
		early:     make([]int, 0, n),
	}
	for i := 0; i < n; i++ {
		a.procs[i] = &Proc{id: i, a: a}
		a.start[i] = make(chan Program, 1)
		a.grant[i] = make(chan grantMsg, 1)
		go a.slotMain(i)
	}
	return a
}

// Procs returns the arena's stable process handles, indexed by process id.
// They are the handles every Run passes to its programs, so environments
// bound to them (run.BoundPrograms) stay valid across runs.
func (a *Arena) Procs() []*Proc { return a.procs }

// Close releases the arena's process goroutines. The arena must be idle (no
// Run in progress). Close is idempotent.
func (a *Arena) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, ch := range a.start {
		close(ch)
	}
}

// slotMain is one process slot: it runs each program handed to it and
// survives aborts, stalls, and panics, so the goroutine is reusable.
func (a *Arena) slotMain(id int) {
	p := a.procs[id]
	for prog := range a.start[id] {
		a.runProgram(p, prog)
	}
}

func (a *Arena) runProgram(p *Proc, prog Program) {
	defer func() {
		switch v := recover(); v.(type) {
		case nil:
		case abortSignal:
			a.events <- procEvent{id: p.id, kind: evAborted}
		case stallSignal:
			a.events <- procEvent{id: p.id, kind: evStalled}
		default:
			a.events <- procEvent{id: p.id, kind: evPanicked, panicVal: v}
		}
	}()
	dec := prog(p)
	a.events <- procEvent{id: p.id, kind: evFinished, decision: dec}
}

func (a *Arena) record(e trace.Event) {
	if a.cfg.Log != nil {
		a.cfg.Log.Append(e)
		if a.cfg.Observer != nil {
			e.Index = a.cfg.Log.Len() - 1
			a.cfg.Observer(e)
		}
		return
	}
	if a.cfg.Observer != nil {
		a.cfg.Observer(e)
	}
}

// Run executes one simulation over the arena and returns its result. The
// returned Result's slices are owned by the arena and are invalidated by
// the next Run; one-shot callers (RunContext) are unaffected.
//
// The execution ends when every process has decided (or stalled), when the
// scheduler stops it, when ctx is cancelled between steps (the partial
// result is returned together with ctx.Err(), marked Stopped), or when an
// error (wait-freedom violation, panic) occurs. Run never returns both a
// nil Result and a nil error.
func (a *Arena) Run(ctx context.Context, cfg Config) (*Result, error) {
	if a.closed {
		return nil, errors.New("sim: arena closed")
	}
	if len(cfg.Programs) != a.n {
		return nil, fmt.Errorf("sim: %d programs for a %d-process arena", len(cfg.Programs), a.n)
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: no scheduler")
	}
	limit := cfg.StepLimit
	if limit <= 0 {
		limit = DefaultStepLimit
	}

	a.cfg = cfg
	for i := 0; i < a.n; i++ {
		a.decided[i] = false
		a.decisions[i] = word.Bottom
		a.steps[i] = 0
		a.stalled[i] = false
		a.parked[i] = false
	}
	a.liveCount = a.n
	a.early = a.early[:0]
	// Whatever happens, unwind parked processes back to their slots on
	// exit, so the arena is clean for its next Run.
	defer a.unwind()

	for i, prog := range cfg.Programs {
		a.start[i] <- prog
	}

	// Collection phase: wait until every process is parked at its first
	// step or already finished. Processes that finish without taking any
	// step have their decide events appended afterwards in id order, so
	// the trace stays deterministic despite concurrent starts. The phase
	// always drains all n events — even after a panic — so no event of
	// this run can leak into the next one.
	var startErr error
	for pending := a.n; pending > 0; pending-- {
		ev := <-a.events
		switch ev.kind {
		case evParked:
			a.parked[ev.id] = true
		case evFinished:
			a.decided[ev.id] = true
			a.decisions[ev.id] = ev.decision
			a.liveCount--
			a.early = append(a.early, ev.id)
		case evPanicked:
			a.liveCount--
			if startErr == nil {
				startErr = &PanicError{Proc: ev.id, Value: ev.panicVal}
			}
		case evStalled:
			// Cannot happen before the first grant.
			a.liveCount--
			if startErr == nil {
				startErr = fmt.Errorf("sim: process %d stalled before its first step", ev.id)
			}
		}
	}
	if startErr != nil {
		return nil, startErr
	}
	sort.Ints(a.early)
	for _, id := range a.early {
		a.record(trace.Event{Kind: trace.EventDecide, Proc: id, Value: a.decisions[id]})
	}

	// Main loop: grant one step at a time. Cancellation is polled with a
	// non-blocking receive on ctx.Done(), not ctx.Err(): a cancelCtx's Err
	// takes the context's mutex, and every engine worker replays under the
	// same context, so a per-step Err would serialize the workers on it.
	done := ctx.Done()
	for a.liveCount > 0 {
		select {
		case <-done:
			return a.result(true), ctx.Err()
		default:
		}
		a.enabled = a.enabled[:0]
		for id := 0; id < a.n; id++ {
			if a.parked[id] {
				a.enabled = append(a.enabled, id)
			}
		}
		if len(a.enabled) == 0 {
			// All live processes are stalled: nothing can ever step.
			break
		}
		pick, ok := cfg.Scheduler.Next(a.enabled)
		if !ok {
			return a.result(true), nil
		}
		if pick < 0 || pick >= a.n || !a.parked[pick] {
			return nil, fmt.Errorf("sim: scheduler picked process %d which is not enabled", pick)
		}
		a.steps[pick]++
		if a.steps[pick] > limit {
			return a.result(false), fmt.Errorf("%w: process %d exceeded %d steps", ErrWaitFreedom, pick, limit)
		}
		a.parked[pick] = false
		a.grant[pick] <- grantMsg{}

		// Only the granted process can emit the next event: everyone
		// else is blocked waiting for a grant.
		ev := <-a.events
		switch ev.kind {
		case evParked:
			a.parked[ev.id] = true
		case evFinished:
			a.decided[ev.id] = true
			a.decisions[ev.id] = ev.decision
			a.liveCount--
			a.record(trace.Event{Kind: trace.EventDecide, Proc: ev.id, Value: ev.decision})
		case evStalled:
			a.stalled[ev.id] = true
			a.liveCount--
		case evPanicked:
			a.liveCount--
			return nil, &PanicError{Proc: ev.id, Value: ev.panicVal}
		}
	}
	return a.result(false), nil
}

// unwind aborts every parked process and waits for each to acknowledge that
// it returned to its slot. At every Run exit the non-parked processes have
// already reported their final event, so after unwind the events channel is
// empty and all slots are idle.
func (a *Arena) unwind() {
	aborting := 0
	for id := 0; id < a.n; id++ {
		if a.parked[id] {
			a.grant[id] <- grantMsg{abort: true}
			aborting++
		}
	}
	for ; aborting > 0; aborting-- {
		ev := <-a.events
		if ev.kind != evAborted {
			panic(fmt.Sprintf("sim: event kind %d during unwind", ev.kind))
		}
		a.parked[ev.id] = false
	}
}

func (a *Arena) result(stopped bool) *Result {
	a.res = Result{
		Decided:   a.decided,
		Decisions: a.decisions,
		Steps:     a.steps,
		Stalled:   a.stalled,
		Stopped:   stopped,
		Log:       a.cfg.Log,
	}
	return &a.res
}

// Run executes one simulation to completion and returns its result.
//
// The execution ends when every process has decided (or stalled), when the
// scheduler stops it, or when an error (wait-freedom violation, panic)
// occurs. Run never returns both a nil Result and a nil error.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) between steps, the execution is abandoned and the partial
// result is returned together with ctx.Err(). The result is marked Stopped,
// like an execution the scheduler halted, since the remaining processes were
// abandoned rather than left behind by the protocol.
//
// RunContext is the one-shot form: it builds a single-use Arena and closes
// it before returning. Repeated replays should hold an Arena and call its
// Run directly.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Programs) == 0 {
		return nil, errors.New("sim: no programs")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: no scheduler")
	}
	a := NewArena(len(cfg.Programs))
	defer a.Close()
	return a.Run(ctx, cfg)
}

// Package refsim is the reference semantics of the shared-memory execution
// model: each protocol's Decide code, the literal transcription of the
// paper's figures, run on a deterministic cooperative simulator. Only tests
// import it. Everything outside tests runs the protocols' compiled step
// machines on sim.Stepped, and the differential tests certify that form
// against this one: same scheduling decisions, same step accounting, same
// trace events in the same order, same errors byte for byte.
//
// A fixed collection of virtual processes communicates through shared
// objects. Each shared-object operation (invocation and response folded
// together) is one atomic step; between steps a process performs only local
// computation, which is invisible to other processes and therefore needs no
// scheduling decision. A sim.Scheduler chooses which process takes the next
// step, so an execution is fully determined by (programs, scheduler
// choices, fault choices).
//
// Mechanically, every process runs in its own goroutine but is gated: before
// each atomic step it parks and waits for a grant from the runner. The runner
// grants exactly one process at a time, so the simulation is sequentially
// consistent and race-free by construction even though programs are written
// as ordinary straight-line Go code.
//
// The process goroutines live in an Arena, which is reusable: a reference
// sweep replays thousands of executions, and respawning goroutines and
// channels per replay would dominate its profile. Run starts each slot's
// current program over the arena's long-lived goroutines; when an execution
// ends early, parked processes are unwound back to their slots with an abort
// grant, so the next Run starts from a clean arena. One-shot callers use
// Run/RunContext, which wrap a single-use Arena.
package refsim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// Program is the code of one process: it receives its process handle and
// returns its decision value. Programs must be deterministic and must touch
// shared state only through Proc.Exec (shared objects do this internally).
type Program func(p *Proc) word.Word

// Config describes one execution.
type Config struct {
	// Programs holds one program per process; process ids are indices.
	Programs []Program
	// Scheduler chooses the interleaving. Required.
	Scheduler sim.Scheduler
	// StepLimit bounds the number of atomic steps any single process may
	// take. Exceeding it is reported as a wait-freedom violation. 0 means
	// sim.DefaultStepLimit.
	StepLimit int
	// Log, when non-nil, records every step. Shared objects append their
	// events through Proc.Record.
	Log *trace.Log
	// Observer, when non-nil, is called synchronously after each recorded
	// event.
	Observer func(trace.Event)
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
	res       sim.Result
}

// NewArena starts n process goroutines and returns the arena managing them.
// Callers must Close the arena to release the goroutines.
func NewArena(n int) *Arena {
	if n <= 0 {
		panic("refsim: arena needs at least one process")
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
// bound to them (BoundPrograms) stay valid across runs.
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
func (a *Arena) Run(ctx context.Context, cfg Config) (*sim.Result, error) {
	if a.closed {
		return nil, errors.New("refsim: arena closed")
	}
	if len(cfg.Programs) != a.n {
		return nil, fmt.Errorf("refsim: %d programs for a %d-process arena", len(cfg.Programs), a.n)
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("refsim: no scheduler")
	}
	limit := cfg.StepLimit
	if limit <= 0 {
		limit = sim.DefaultStepLimit
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
				startErr = &sim.PanicError{Proc: ev.id, Value: ev.panicVal}
			}
		case evStalled:
			// Cannot happen before the first grant.
			a.liveCount--
			if startErr == nil {
				startErr = fmt.Errorf("refsim: process %d stalled before its first step", ev.id)
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

	// Main loop: grant one step at a time. The structure and the error
	// strings are the ones sim.Stepped reproduces; cancellation is polled
	// with a non-blocking receive on ctx.Done(), as there.
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
			return a.result(false), fmt.Errorf("%w: process %d exceeded %d steps", sim.ErrWaitFreedom, pick, limit)
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
			return nil, &sim.PanicError{Proc: ev.id, Value: ev.panicVal}
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
			panic(fmt.Sprintf("refsim: event kind %d during unwind", ev.kind))
		}
		a.parked[ev.id] = false
	}
}

func (a *Arena) result(stopped bool) *sim.Result {
	a.res = sim.Result{
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
func Run(cfg Config) (*sim.Result, error) {
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
func RunContext(ctx context.Context, cfg Config) (*sim.Result, error) {
	if len(cfg.Programs) == 0 {
		return nil, errors.New("refsim: no programs")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("refsim: no scheduler")
	}
	a := NewArena(len(cfg.Programs))
	defer a.Close()
	return a.Run(ctx, cfg)
}

// The stepped runner executes an entire schedule in one loop on the calling
// goroutine. It advances explicitly resumable state machines (core.Stepper,
// adapted through SteppedProgram), so granting a step is a plain function
// call. It is the one runner outside tests. The reference semantics is each
// protocol's Decide code on refsim's goroutine-gated Arena, where every
// process is suspended inside a blocked program between steps; the stepped
// runner reproduces its observable behaviour exactly — same scheduling
// decisions, same step accounting, same trace events in the same order, same
// errors byte for byte — which the explore package's differential test
// (TestCompiledMatchesInterpreted) and the differential fuzz tests enforce.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/word"
)

// SteppedProgram is the code of all processes of one stepped execution, in
// resumable form. Begin initializes process id's machine (local computation
// only — no shared-memory operation and no recording); each Step call
// performs process id's next atomic step, records its trace events through
// rec (when rec.Recording() reports a receiver; otherwise it need not build
// them), and reports how the process left the step. One Step call must
// perform exactly one shared-object operation: it is the unit the scheduler
// granted, and the step accounting (wait-freedom bounds) counts Step calls.
type SteppedProgram interface {
	Begin(id int)
	Step(id int, rec *StepRecorder) StepOutcome
}

// StepOutcome reports how a process left one granted step.
type StepOutcome struct {
	// Done means the process decided (in this step) with Decision.
	Done bool
	// Stalled means a nonresponsive fault parked the process forever; it
	// takes no further steps and never decides. Stalled overrides Done.
	Stalled bool
	// Decision is the decided value (valid when Done).
	Decision word.Word
}

// StepRecorder appends events to the execution trace on behalf of the
// process taking the current step.
type StepRecorder struct {
	log      *trace.Log
	observer func(trace.Event)
}

// Recording reports whether anything receives the events (a log or an
// observer). When nothing does, a program may skip building them.
func (r *StepRecorder) Recording() bool { return r.log != nil || r.observer != nil }

// Record appends an event to the trace and notifies the observer: with a
// log, the observer sees the event with its log index.
func (r *StepRecorder) Record(e trace.Event) {
	if r.log != nil {
		r.log.Append(e)
		if r.observer != nil {
			e.Index = r.log.Len() - 1
			r.observer(e)
		}
		return
	}
	if r.observer != nil {
		r.observer(e)
	}
}

// SteppedConfig describes one stepped execution: the resumable Program of
// all processes plus the process count, the scheduler, and what records it.
type SteppedConfig struct {
	// Procs is the number of processes; process ids are 0..Procs-1.
	Procs int
	// Program is the resumable code of all processes. Required.
	Program SteppedProgram
	// Scheduler chooses the interleaving. Required.
	Scheduler Scheduler
	// StepLimit bounds the number of atomic steps any single process may
	// take (0 means DefaultStepLimit). Exceeding it is reported as a
	// wait-freedom violation.
	StepLimit int
	// Log, when non-nil, records every step.
	Log *trace.Log
	// Observer, when non-nil, is called synchronously after each recorded
	// event. With neither Log nor Observer the execution records nothing,
	// and no trace event is built.
	Observer func(trace.Event)
}

// Stepped is the reusable runner state for stepped executions. A Stepped
// is built for a fixed process count and can run any number of executions in sequence; it
// holds no goroutines, so there is nothing to Close. Not safe for
// concurrent Runs.
type Stepped struct {
	n         int
	decided   []bool
	decisions []word.Word
	steps     []int
	stalled   []bool
	runnable  []bool
	live      int
	enabled   []int
	cfg       SteppedConfig
	limit     int
	rec       StepRecorder
	res       Result
}

// SteppedSnapshot is the runner's share of a between-steps state: the
// per-process arrays and the live count, which is everything a granted
// step changes in the runner. Save and Restore reuse its buffers, so a
// replay loop that keeps its snapshots allocates nothing after warm-up.
type SteppedSnapshot struct {
	decided   []bool
	decisions []word.Word
	steps     []int
	stalled   []bool
	runnable  []bool
	live      int
}

// NewStepped returns a reusable stepped runner for n processes.
func NewStepped(n int) *Stepped {
	if n <= 0 {
		panic("sim: stepped runner needs at least one process")
	}
	return &Stepped{
		n:         n,
		decided:   make([]bool, n),
		decisions: make([]word.Word, n),
		steps:     make([]int, n),
		stalled:   make([]bool, n),
		runnable:  make([]bool, n),
		enabled:   make([]int, 0, n),
	}
}

// Run executes one stepped simulation and returns its result: Start
// followed by Resume. The returned Result's slices are owned by the runner
// and are invalidated by the next Run. The execution ends when every process has decided (or stalled), when the
// scheduler stops it, when ctx is cancelled between steps (partial result
// plus ctx.Err(), marked Stopped), or on a wait-freedom violation or
// program panic. Run never returns both a nil Result and a nil error.
func (s *Stepped) Run(ctx context.Context, cfg SteppedConfig) (*Result, error) {
	if err := s.Start(cfg); err != nil {
		return nil, err
	}
	return s.Resume(ctx)
}

// Start sets up one execution of cfg: every process is reset and begun, so
// each sits at its first step. Resume then runs the step loop.
func (s *Stepped) Start(cfg SteppedConfig) error {
	if cfg.Procs != s.n {
		return fmt.Errorf("sim: %d processes for a %d-process stepped runner", cfg.Procs, s.n)
	}
	if cfg.Program == nil {
		return errors.New("sim: no program")
	}
	if cfg.Scheduler == nil {
		return errors.New("sim: no scheduler")
	}
	s.limit = cfg.StepLimit
	if s.limit <= 0 {
		s.limit = DefaultStepLimit
	}
	s.cfg = cfg

	for i := 0; i < s.n; i++ {
		s.decided[i] = false
		s.decisions[i] = word.Bottom
		s.steps[i] = 0
		s.stalled[i] = false
		s.runnable[i] = true
	}
	s.rec = StepRecorder{log: cfg.Log, observer: cfg.Observer}
	s.live = s.n

	// Initialization phase: Begin performs no shared-memory step, so
	// afterwards every process sits at its first step, as a process of the
	// reference Arena sits parked at its first grant.
	for id := 0; id < s.n; id++ {
		if err := beginProc(cfg.Program, id); err != nil {
			return err
		}
	}
	return nil
}

// Resume runs the step loop of the execution set up by Start, from
// whatever between-steps state the runner holds: the initial one, or one
// Restore rewound to. See Run for the result and errors.
func (s *Stepped) Resume(ctx context.Context) (*Result, error) {
	// Main loop: grant one step at a time. Structure and error strings
	// track the reference refsim.Arena.Run exactly — the engine's verdicts
	// and lex-least counterexamples match the reference simulator's only
	// because both consume scheduler decisions identically (the explore
	// package's differential test checks it). Cancellation is polled through
	// ctx.Done(), not ctx.Err(): a cancelCtx's Err takes the context's
	// mutex, and every engine worker replays under the same context, so a
	// per-step Err would serialize the workers on it.
	done := ctx.Done()
	for s.live > 0 {
		select {
		case <-done:
			return s.result(true), ctx.Err()
		default:
		}
		s.enabled = s.enabled[:0]
		for id := 0; id < s.n; id++ {
			if s.runnable[id] {
				s.enabled = append(s.enabled, id)
			}
		}
		if len(s.enabled) == 0 {
			// All live processes are stalled: nothing can ever step.
			break
		}
		pick, ok := s.cfg.Scheduler.Next(s.enabled)
		if !ok {
			return s.result(true), nil
		}
		if pick < 0 || pick >= s.n || !s.runnable[pick] {
			return nil, fmt.Errorf("sim: scheduler picked process %d which is not enabled", pick)
		}
		s.steps[pick]++
		if s.steps[pick] > s.limit {
			return s.result(false), fmt.Errorf("%w: process %d exceeded %d steps", ErrWaitFreedom, pick, s.limit)
		}
		out, err := stepProc(s.cfg.Program, pick, &s.rec)
		if err != nil {
			return nil, err
		}
		switch {
		case out.Stalled:
			s.stalled[pick] = true
			s.runnable[pick] = false
			s.live--
		case out.Done:
			s.decided[pick] = true
			s.decisions[pick] = out.Decision
			s.runnable[pick] = false
			s.live--
			// The decide event follows the step's own events, as in the
			// goroutine path (the program returns after its final CAS).
			if s.rec.Recording() {
				s.rec.Record(trace.Event{Kind: trace.EventDecide, Proc: pick, Value: out.Decision})
			}
		}
	}
	return s.result(false), nil
}

// Save copies the runner's between-steps state into snap. It is meant to
// be called from the scheduler, which runs between steps.
func (s *Stepped) Save(snap *SteppedSnapshot) {
	if len(snap.steps) != s.n {
		*snap = SteppedSnapshot{
			decided:   make([]bool, s.n),
			decisions: make([]word.Word, s.n),
			steps:     make([]int, s.n),
			stalled:   make([]bool, s.n),
			runnable:  make([]bool, s.n),
		}
	}
	// One loop over the handful of processes, not five copy calls.
	for i := 0; i < s.n; i++ {
		snap.decided[i] = s.decided[i]
		snap.decisions[i] = s.decisions[i]
		snap.steps[i] = s.steps[i]
		snap.stalled[i] = s.stalled[i]
		snap.runnable[i] = s.runnable[i]
	}
	snap.live = s.live
}

// Restore rewinds the runner to a state Save took during an execution of
// the current Start's configuration; Resume continues from it. The
// program's own state (SteppedProgram) is the caller's to rewind.
func (s *Stepped) Restore(snap *SteppedSnapshot) {
	for i := 0; i < s.n; i++ {
		s.decided[i] = snap.decided[i]
		s.decisions[i] = snap.decisions[i]
		s.steps[i] = snap.steps[i]
		s.stalled[i] = snap.stalled[i]
		s.runnable[i] = snap.runnable[i]
	}
	s.live = snap.live
}

// beginProc initializes one process, converting a panic into the same
// PanicError the reference Arena reports for a program panicking before
// its first step.
func beginProc(prog SteppedProgram, id int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Proc: id, Value: v}
		}
	}()
	prog.Begin(id)
	return nil
}

// stepProc advances one process by one step, converting a panic into the
// same PanicError the reference Arena reports for a program panicking
// mid-step.
func stepProc(prog SteppedProgram, id int, rec *StepRecorder) (out StepOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Proc: id, Value: v}
		}
	}()
	return prog.Step(id, rec), nil
}

func (s *Stepped) result(stopped bool) *Result {
	// Field by field: a composite literal would be built aside and copied.
	r := &s.res
	r.Decided, r.Decisions, r.Steps, r.Stalled = s.decided, s.decisions, s.steps, s.stalled
	r.Stopped, r.Log = stopped, s.cfg.Log
	return r
}

// RunStepped executes one stepped simulation to completion — the one-shot
// form. Repeated replays (the model checker's hot path) should hold a
// Stepped and call its Run directly.
func RunStepped(ctx context.Context, cfg SteppedConfig) (*Result, error) {
	if cfg.Procs <= 0 {
		return nil, errors.New("sim: no processes")
	}
	return NewStepped(cfg.Procs).Run(ctx, cfg)
}

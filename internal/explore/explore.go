// Package explore is a bounded, exhaustive model checker for consensus
// executions in the functional-fault model.
//
// An execution of the simulator is a pure function of the protocol, the
// inputs, the scheduler's choices, and the fault choices (Definition 1
// faults fire only at operation boundaries, so a binary choice per
// admissible, observable CAS captures the entire adversary). The checker
// therefore enumerates the execution tree by stateless replay: each run is
// driven by a choice path; after the run, the deepest branch point with an
// untaken alternative is advanced (depth-first, odometer style) and the
// execution is replayed from scratch. Wait-freedom of the protocols makes
// every path finite, so for small configurations the enumeration is
// complete — an empirical proof of the paper's possibility theorems, and a
// counterexample finder for its impossibility theorems.
package explore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/word"
)

// DefaultMaxExecutions bounds the enumeration when Settings.MaxExecutions
// is 0.
const DefaultMaxExecutions = 200_000

// Counterexample is a violating execution, replayable via its Path (with
// the same settings) or its Schedule (with a sim.Script and scripted faults).
type Counterexample struct {
	// Path is the choice sequence driving the violating execution.
	Path []int
	// Schedule is the sequence of process ids granted steps, in order.
	Schedule []int
	// Verdict describes the violated requirement.
	Verdict run.Verdict
	// Trace is the full event log of the violating execution.
	Trace *trace.Log
	// Inputs are the process inputs of the execution.
	Inputs []int64
}

func (c *Counterexample) String() string {
	return fmt.Sprintf("counterexample (%d steps): %s\nschedule: %v\ntrace:\n%s",
		len(c.Schedule), c.Verdict.String(), c.Schedule, c.Trace)
}

// Outcome summarizes an exploration. What it guarantees depends on how the
// run ended:
//
//   - Complete: every leaf was visited, so Executions, MaxProcSteps, and
//     MaxFaults are the same for any worker count.
//   - Stopped at a violation (default mode): Violation is the canonical,
//     lexicographically least counterexample for any worker count, while
//     Executions counts how far the workers got before the bound stopped
//     them.
//   - Capped (MaxExecutions spent, ctx not cancelled): Executions ==
//     MaxExecutions exactly, for any worker count. With one worker the run
//     covers exactly the first MaxExecutions leaves in lexicographic order,
//     so every field but the wall-clock ones is deterministic. With more
//     workers, which leaves ran depends on goroutine interleaving, and so
//     do MaxProcSteps, MaxFaults, and Violation.
//   - Cancelled: a partial tally of whatever ran before ctx ended.
type Outcome struct {
	// Executions is the number of complete executions enumerated.
	Executions int
	// Complete reports that the entire execution tree was enumerated
	// (no violation found, or Exhaustive mode, and the cap was not hit).
	Complete bool
	// Violation is the reported violating execution, or nil.
	Violation *Counterexample
	// MaxProcSteps is the largest per-process step count observed.
	MaxProcSteps int
	// MaxFaults is the largest total fault count observed in a run.
	MaxFaults int
	// Workers is the number of parallel workers used (for FinalizeLedger,
	// the number of participant processes).
	Workers int
	// Elapsed is the wall-clock duration of the exploration, including
	// time accumulated before a resume.
	Elapsed time.Duration
	// ViolationLatency is the wall-clock time until the first violating
	// execution was replayed (zero if none was found).
	ViolationLatency time.Duration
	// Donations is the number of subtree tasks workers carved off and
	// pushed to the frontier for others to claim.
	Donations int64
	// Steals is the number of tasks claimed from the shared frontier.
	Steals int64
	// Dedup holds the state-cache counters of a deduplicated run (nil when
	// deduplication was off).
	Dedup *dedup.Stats
	// ReducePrunes is the number of sleep-blocked subtrees the partial-order
	// reducer cut (zero with reduction off).
	ReducePrunes int64
}

// OK reports that no violation was found.
func (o *Outcome) OK() bool { return o.Violation == nil }

// chooser drives one replayed execution along a fixed decision prefix,
// extending it with first-branch (0) decisions and recording each branch
// point's arity for backtracking.
type chooser struct {
	path  []int
	arity []int
	pos   int
	// lb is the backtracking floor: next never retracts a choice at a
	// position below lb. A whole-tree walk (CrossCheck) uses lb = 0; an
	// engine worker owns the subtree rooted at its task's prefix and sets
	// lb = len(prefix).
	lb int
}

func (c *chooser) choose(n int) int {
	if n < 1 {
		panic("explore: choose with no alternatives")
	}
	if c.pos == len(c.path) {
		c.path = append(c.path, 0)
	}
	pick := c.path[c.pos]
	if pick >= n {
		// The prefix came from a previous run whose tree shape matched
		// up to here; a deterministic system never shrinks an arity on
		// the same prefix.
		panic(fmt.Sprintf("explore: stale choice %d of %d at position %d", pick, n, c.pos))
	}
	c.arity = append(c.arity, n)
	c.pos++
	return pick
}

// next advances the path depth-first: it truncates to the deepest branch
// point with an untaken alternative and increments it. It returns false when
// the subtree above the backtracking floor is exhausted.
func (c *chooser) next() bool {
	i := len(c.path) - 1
	for i >= c.lb && c.path[i]+1 >= c.arity[i] {
		i--
	}
	if i < c.lb {
		return false
	}
	c.path = c.path[:i+1]
	c.path[i]++
	return true
}

// donate carves off every untaken alternative at the shallowest branch point
// at or above the backtracking floor and returns them as ONE subtree task
// (path = the next untaken alternative, floor = the branch position, so the
// recipient's own backtracking enumerates the remaining alternatives),
// excluding them from this chooser's enumeration. It returns ok=false when
// the remaining subtree has no branch point to split. This is the
// work-sharing primitive of the parallel engine, applied shallowest-first so
// a donation is the largest subtree the worker can give away; consolidating
// the alternatives into one task (rather than one task per alternative)
// keeps donated subtrees big enough to amortize the recipient's cap lease
// and publish cadence.
//
// donate must be called right after a replay, while the recorded arities
// describe the current path. Because d is the shallowest branch point with
// untaken alternatives, every position above it is exhausted for good (the
// tree is deterministic), so raising the floor past d excludes exactly the
// donated subtree from this worker's future backtracking.
func (c *chooser) donate() (path []int, floor int, ok bool) {
	for d := c.lb; d < len(c.arity) && d < len(c.path); d++ {
		if c.path[d]+1 >= c.arity[d] {
			continue
		}
		p := make([]int, d+1)
		copy(p, c.path[:d])
		p[d] = c.path[d] + 1
		c.lb = d + 1
		return p, d, true
	}
	return nil, 0, false
}

// observable reports whether injecting the fault kind on this invocation
// would violate the CAS postconditions Φ (Definition 1); unobservable
// injections are not faults and would only bloat the tree.
func observable(kind fault.Kind, op fault.Op) bool {
	switch kind {
	case fault.Overriding:
		return op.Current != op.Exp && op.New != op.Current
	case fault.Silent:
		return op.Current == op.Exp && op.New != op.Current
	default:
		return false
	}
}

// prepare validates the settings and resolves the effective fault kind,
// execution cap, and execution form. st and l are the run store and work
// ledger the engine is attached to (both nil for a single replay), so every
// combination the engine cannot honour is refused in one place.
func prepare(s *run.Settings, st *store.Store, l *ledger.Ledger) (kind fault.Kind, cap int, compiled bool, err error) {
	if s.Protocol == nil {
		return 0, 0, false, fmt.Errorf("explore: no protocol")
	}
	if len(s.Inputs) == 0 {
		return 0, 0, false, fmt.Errorf("explore: no inputs")
	}
	kind = s.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	if s.Policy == nil && kind != fault.Overriding && kind != fault.Silent {
		return 0, 0, false, fmt.Errorf("explore: unsupported fault kind %v", kind)
	}
	switch {
	case l != nil && st != nil:
		return 0, 0, false, fmt.Errorf("explore: Ledger and Store are mutually exclusive — published results are the ledger's durable state")
	case s.Policy != nil && l != nil:
		return 0, 0, false, fmt.Errorf("explore: the ledger requires the checker's own fault policy, not a fixed Policy")
	case s.Policy != nil && (s.Dedup || st != nil):
		// A fixed policy is an opaque closure that may carry state across
		// invocations; neither the state fingerprint nor a checkpointed
		// replay can reproduce it.
		return 0, 0, false, fmt.Errorf("explore: dedup and checkpointing require the checker's own fault policy, not a fixed Policy")
	}
	compiled, err = run.ResolveExec(s.Exec, s.Protocol)
	if err != nil {
		return 0, 0, false, err
	}
	if s.Reduce != run.ReduceOff {
		if s.Policy != nil {
			// The reducer's independence relation reasons about the
			// checker's own fault branches (observable ∧ admitted); an
			// opaque policy could fire faults the purity predicate does
			// not see.
			return 0, 0, false, fmt.Errorf("explore: partial-order reduction requires the checker's own fault policy, not a fixed Policy")
		}
		if s.Reduce == run.ReduceAggressive && !compiled {
			return 0, 0, false, fmt.Errorf("explore: aggressive reduction needs object footprints from the compiled step machines; %s has no Stepper or the interpreted form was forced", s.Protocol.Name())
		}
		if len(s.Inputs) > 64 {
			// The reducer's sleep and persistent sets are process bitmasks.
			return 0, 0, false, fmt.Errorf("explore: partial-order reduction supports at most 64 processes, got %d", len(s.Inputs))
		}
	}
	cap = s.MaxExecutions
	if cap <= 0 {
		cap = DefaultMaxExecutions
	}
	return kind, cap, compiled, nil
}

// CheckWith explores the execution space described by the unified run.With...
// options — the one way executions are constructed across the packages. The
// exploration runs on the engine with the configured worker count
// (run.WithWorkers; default GOMAXPROCS) and honors ctx cancellation.
//
// run.WithCheckpoint creates a run store and checkpoints into it;
// run.WithResume opens an existing run store, refuses mismatched settings
// (store.ErrMismatch), and continues the stored exploration; run.WithLedger
// joins a multi-process work ledger; run.WithTraceDir captures durable
// execution traces. Engine.Attach opens all of it and Engine.Close releases
// it before this call returns.
func CheckWith(ctx context.Context, opts ...run.Option) (*Outcome, error) {
	s := run.NewSettings(opts...)
	eng := &Engine{}
	if err := eng.Attach(s); err != nil {
		return nil, err
	}
	out, err := eng.Check(ctx, s)
	if cerr := eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return out, err
}

type runStats struct {
	maxSteps int
	faults   int
}

// execState is the reusable replay machinery of one enumeration loop (one
// engine worker, or one replay): the fault budget, the object bank, the
// simulator arena with its pre-bound programs, the trace log, the schedule
// buffer, and the verdict evaluator. All of it is allocated once and reset
// per leaf — replaying a leaf used to allocate ~84 objects (closures, bank,
// channels, goroutines, slices); at millions of leaves the allocator and
// scheduler churn dominated the engine's profile and made worker scaling
// negative.
type execState struct {
	s    *run.Settings
	kind fault.Kind
	c    *chooser
	dh   *dedupHandle // nil without dedup
	red  *reducer     // nil without partial-order reduction

	// tracker is the single canonical-state observer of the replay,
	// present whenever dedup or reduction is on (shared by both).
	tracker *dedup.Tracker
	// prunedAt records where the current replay halted early (-1 if it ran
	// to its end): the dedup set claimed the state for a smaller path, or
	// the reducer found the node sleep-blocked (pruneSleep tells which).
	prunedAt   int
	pruneSleep bool

	budget   *fault.Budget
	bank     *object.Bank
	log      *trace.Log
	schedule []int
	eval     *run.Evaluator

	// Goroutine-gated reference form (compiled == false).
	arena  *sim.Arena
	simCfg sim.Config

	// Compiled form (compiled == true): the protocol's step machines on
	// the single-goroutine stepped runner.
	compiled   bool
	stepped    *sim.Stepped
	steppedCfg sim.SteppedConfig
}

// newExecState builds the replay machinery for one enumeration loop driven
// by the given chooser. compiled must come from prepare (callers may not
// request a compiled form the protocol does not provide). Callers must
// close the state to release the arena's goroutines (a no-op on the
// compiled path, which holds none).
func newExecState(s *run.Settings, kind fault.Kind, compiled bool, c *chooser, dh *dedupHandle) *execState {
	es := &execState{s: s, kind: kind, compiled: compiled, c: c, dh: dh}
	es.budget = fault.NewFixedBudget(s.FaultyObjects, s.FaultsPerObject)
	policy := s.Policy
	if policy == nil {
		policy = fault.PolicyFunc(func(op fault.Op) fault.Proposal {
			if !es.budget.Admits(op.Object) || !observable(es.kind, op) {
				return fault.NoFault
			}
			if es.c.choose(2) == 1 {
				return fault.Proposal{Kind: es.kind}
			}
			return fault.NoFault
		})
	}
	es.bank = object.NewBank(s.Protocol.Objects(), es.budget, policy)
	es.log = trace.New()
	es.eval = run.NewEvaluator(s.Inputs)

	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}
	if dh != nil {
		es.tracker = dh.tracker
	}
	if s.Reduce != run.ReduceOff {
		if es.tracker == nil {
			es.tracker = dedup.NewTracker(s.Protocol.Objects(), s.Inputs, true)
		}
		es.red = newReducer(s.Reduce, kind, len(s.Inputs), es.tracker, es.budget)
	}
	var observer func(trace.Event)
	if es.tracker != nil {
		observer = es.tracker.Observe
	}
	if compiled {
		stepper, ok := core.Compile(s.Protocol)
		if !ok {
			panic(fmt.Sprintf("explore: compiled execution of %s, which has no Stepper", s.Protocol.Name()))
		}
		prog := run.NewSteppedExec(stepper, es.bank, s.Inputs)
		if es.red != nil {
			es.red.pendingOf = prog.Pending
			es.red.footprintOf = prog.Footprint
		}
		es.stepped = sim.NewStepped(len(s.Inputs))
		es.steppedCfg = sim.SteppedConfig{
			Procs:     len(s.Inputs),
			Program:   prog,
			Scheduler: sim.SchedulerFunc(es.schedNext),
			StepLimit: limit,
			Log:       es.log,
			Observer:  observer,
		}
		return es
	}
	es.arena = sim.NewArena(len(s.Inputs))
	if es.red != nil {
		es.red.pendingOf = es.arena.Pending
	}
	es.simCfg = sim.Config{
		Programs:  run.BoundPrograms(s.Protocol, es.bank, s.Inputs, es.arena.Procs()),
		Scheduler: sim.SchedulerFunc(es.schedNext),
		StepLimit: limit,
		Log:       es.log,
		Observer:  observer,
	}
	return es
}

// schedNext is the replay scheduler: it folds the previous step into the
// reducer (when on), consults the dedup set (when on) before consuming each
// scheduling decision, then follows the choice path through the branch
// alternatives this node exposes — the enabled set, or the reducer's
// filtered candidate set.
func (es *execState) schedNext(enabled []int) (int, bool) {
	c := es.c
	if es.red != nil {
		es.red.advance()
	}
	if es.dh != nil {
		fp := es.tracker.Fingerprint()
		if es.red != nil {
			// Same state, different sleep set ⇒ different explored
			// successors; only identical pairs may merge.
			fp = es.red.salt(fp)
		}
		if es.dh.set.Visit(fp, c.path[:c.pos]) == dedup.Prune {
			es.prunedAt = c.pos
			es.pruneSleep = false
			return 0, false
		}
	}
	if es.red == nil {
		pick := enabled[0]
		if len(enabled) > 1 {
			pick = enabled[c.choose(len(enabled))]
		}
		es.schedule = append(es.schedule, pick)
		return pick, true
	}
	cand := es.red.candidates(enabled)
	if len(cand) == 0 {
		// Sleep-blocked: every continuation from this node is covered
		// below an earlier sibling.
		es.prunedAt = c.pos
		es.pruneSleep = true
		return 0, false
	}
	idx := 0
	if len(cand) > 1 {
		idx = c.choose(len(cand))
	}
	pick := cand[idx]
	es.red.chose(cand, idx)
	es.schedule = append(es.schedule, pick)
	return pick, true
}

// close releases the arena's process goroutines (no-op on the compiled
// path, which runs on the calling goroutine).
func (es *execState) close() {
	if es.arena != nil {
		es.arena.Close()
	}
}

// runLeaf replays one execution along the chooser's path, reusing the
// execState's machinery. When dedup or reduction is on and the replay
// reaches a state already claimed by a lexicographically smaller path (or a
// sleep-blocked node), it halts early and reports pruned=true (es.prunedAt
// records where, es.pruneSleep which mechanism); the replay is then neither
// evaluated nor counted — any violation visible in the halted prefix also
// appears below a smaller path.
//
// The returned verdict borrows slices owned by the arena and the execState;
// callers retaining a leaf (violations, trace samples) must go through
// counterexample, which clones everything.
func (es *execState) runLeaf(ctx context.Context) (run.Verdict, runStats, bool, error) {
	es.budget.Reset()
	es.bank.Reset()
	es.log.Reset()
	es.schedule = es.schedule[:0]
	es.prunedAt = -1
	if es.tracker != nil {
		es.tracker.Reset()
	}
	if es.red != nil {
		es.red.reset()
	}

	var res *sim.Result
	var err error
	if es.compiled {
		res, err = es.stepped.Run(ctx, es.steppedCfg)
	} else {
		res, err = es.arena.Run(ctx, es.simCfg)
	}
	if err != nil && res == nil {
		return run.Verdict{}, runStats{}, false, err
	}
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		// Cancellation (or any future partial-result condition): the
		// truncated execution must not be evaluated as if it completed.
		return run.Verdict{}, runStats{}, false, err
	}
	if es.prunedAt >= 0 {
		return run.Verdict{}, runStats{}, true, nil
	}

	stats := runStats{faults: es.budget.TotalFaults()}
	for _, s := range res.Steps {
		if s > stats.maxSteps {
			stats.maxSteps = s
		}
	}
	return es.eval.Evaluate(res, err), stats, false, nil
}

// counterexample snapshots the most recent runLeaf as a self-contained
// Counterexample: the path, schedule, trace, and verdict slices are cloned,
// so the record stays valid while the execState keeps replaying.
func (es *execState) counterexample(verdict run.Verdict) *Counterexample {
	verdict.Decisions = append([]word.Word(nil), verdict.Decisions...)
	verdict.Decided = append([]bool(nil), verdict.Decided...)
	return &Counterexample{
		Path:     append([]int(nil), es.c.path...),
		Schedule: append([]int(nil), es.schedule...),
		Verdict:  verdict,
		Trace:    es.log.Clone(),
		Inputs:   es.s.Inputs,
	}
}

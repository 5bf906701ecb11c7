// Package explore is a bounded, exhaustive model checker for consensus
// executions in the functional-fault model.
//
// An execution of the simulator is a pure function of the protocol, the
// inputs, the scheduler's choices, and the fault choices (Definition 1
// faults fire only at operation boundaries, so a binary choice per
// admissible, observable CAS captures the entire adversary). The checker
// therefore enumerates the execution tree by replay: each run is driven by
// a choice path; after the run, the deepest branch point with an untaken
// alternative is advanced (depth-first, odometer style) and the execution
// is replayed from the deepest state it shares with the previous one: the
// protocols' compiled step machines resume from a between-steps snapshot
// saved along the previous path. Wait-freedom of the protocols makes every
// path finite, so for small configurations the enumeration is complete — an
// empirical proof of the paper's possibility theorems, and a counterexample
// finder for its impossibility theorems.
package explore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/fault"
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
//   - Resumed from a checkpoint: a checkpoint is one consistent cut, so
//     the resumed run re-runs exactly the leaves the checkpoint did not
//     count. A resumed complete run reports exactly the Executions,
//     MaxProcSteps, and MaxFaults of an uninterrupted one, however often
//     it was cut and at any worker counts; with Dedup, Executions depends
//     on how workers race even without a resume.
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
	// Workers is the number of parallel workers used.
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
	// Dedup holds the state-cache counters and size of a deduplicated run
	// (nil when deduplication was off). A checkpoint does not carry the set,
	// so after a resume they count only the states and probes of this
	// process, while Executions also counts the executions restored from
	// the checkpoint. A full set records no new state and keeps pruning
	// with the states it holds (the engine sets no state limit, so only a
	// shard whose path arena reaches 4 GiB fills): that costs pruning,
	// never soundness, so the verdict and the lex-least counterexample
	// stand.
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
	// position below lb. A whole-tree walk uses lb = 0; an engine worker
	// owns the subtree rooted at its task's prefix and sets
	// lb = len(prefix).
	lb int
	// changed is the first position whose choice may differ from the
	// previous replay's: the next replay resumes from its deepest snapshot
	// at or before it. Zero (the zero value, and a task start) replays
	// from the root.
	changed int
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
		panic(staleChoice{pick: pick, n: n, pos: c.pos})
	}
	c.arity = append(c.arity, n)
	c.pos++
	return pick
}

// staleChoice is choose's panic value: the path's choice at pos is not
// among the n alternatives the replay offers there.
type staleChoice struct{ pick, n, pos int }

func (e staleChoice) Error() string {
	return fmt.Sprintf("explore: stale choice %d of %d at position %d", e.pick, e.n, e.pos)
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
	c.changed = min(c.changed, i)
	return true
}

// truncate cuts the path to its first n choices, as at a pruned replay's
// halt position.
func (c *chooser) truncate(n int) {
	c.path = c.path[:n]
	c.arity = c.arity[:n]
	c.changed = min(c.changed, n)
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

// ProcessLimitError is prepare's refusal of a mechanism whose encoding
// bounds the number of processes it can explore.
type ProcessLimitError struct {
	Mechanism string // "partial-order reduction" or "dedup"
	Max       int
	Procs     int
}

func (e *ProcessLimitError) Error() string {
	return fmt.Sprintf("explore: %s supports at most %d processes, got %d", e.Mechanism, e.Max, e.Procs)
}

// prepare validates the settings and resolves the effective fault kind and
// execution cap. st is the run store the engine is attached to (nil for a
// single replay), so every combination the engine cannot honour is refused
// in one place.
func prepare(s *run.Settings, st *store.Store) (kind fault.Kind, cap int, err error) {
	if s.Protocol == nil {
		return 0, 0, fmt.Errorf("explore: no protocol")
	}
	if len(s.Inputs) == 0 {
		return 0, 0, fmt.Errorf("explore: no inputs")
	}
	if _, ok := core.Compile(s.Protocol); !ok {
		return 0, 0, fmt.Errorf("explore: protocol %s has no compiled form (core.Stepper)", s.Protocol.Name())
	}
	kind = s.Kind
	if kind == fault.None {
		kind = fault.Overriding
	}
	if s.Policy == nil && kind != fault.Overriding && kind != fault.Silent {
		return 0, 0, fmt.Errorf("explore: unsupported fault kind %v", kind)
	}
	if s.Policy != nil && (s.Dedup || st != nil) {
		// A fixed policy is an opaque closure that may carry state across
		// invocations; neither the state fingerprint nor a checkpointed
		// replay can reproduce it.
		return 0, 0, fmt.Errorf("explore: dedup and checkpointing require the checker's own fault policy, not a fixed Policy")
	}
	if s.Reduce != run.ReduceOff {
		if s.Policy != nil {
			// The reducer's independence relation reasons about the
			// checker's own fault branches (observable ∧ admitted); an
			// opaque policy could fire faults the purity predicate does
			// not see.
			return 0, 0, fmt.Errorf("explore: partial-order reduction requires the checker's own fault policy, not a fixed Policy")
		}
		if len(s.Inputs) > 64 {
			// The reducer's sleep sets are process bitmasks.
			return 0, 0, &ProcessLimitError{Mechanism: "partial-order reduction", Max: 64, Procs: len(s.Inputs)}
		}
	}
	if s.Dedup && len(s.Inputs) > dedup.MaxChoice+1 {
		// The dedup set stores one byte per choice, and a scheduling
		// choice indexes the enabled processes.
		return 0, 0, &ProcessLimitError{Mechanism: "dedup", Max: dedup.MaxChoice + 1, Procs: len(s.Inputs)}
	}
	cap = s.MaxExecutions
	if cap <= 0 {
		cap = DefaultMaxExecutions
	}
	return kind, cap, nil
}

// CheckWith explores the execution space described by the unified run.With...
// options — the one way executions are constructed across the packages. The
// exploration runs on the engine with the configured worker count
// (run.WithWorkers; default GOMAXPROCS) and honors ctx cancellation.
//
// run.WithCheckpoint creates a run store and checkpoints into it;
// run.WithResume opens an existing run store, refuses mismatched settings
// (store.ErrMismatch), and continues the stored exploration;
// run.WithTraceDir captures durable execution traces. Engine.Attach opens all of it and Engine.Close releases
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
// protocol's step machines on the stepped runner, and the verdict each leaf
// is evaluated into. All of it is allocated once and reset per leaf, so
// replays allocate nothing on their hot path.
//
// A recording state also keeps the trace log and the schedule buffer. An
// engine worker's state records nothing: it builds no trace event unless the
// dedup tracker or the reducer observes them. A leaf the worker keeps (a
// violation or a trace sample) is replayed once more on the worker's
// recording state (keep).
//
// It also keeps a stack of between-steps snapshots along the current path
// (snaps), so a leaf resumes from the deepest state it shares with the
// previous leaf instead of replaying its whole prefix.
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
	// probed is the chooser position at or below which the current replay
	// makes no dedup probe: the first changed position when it resumed
	// from a snapshot, -1 when it replays from the root (see runLeaf).
	probed int

	budget  *fault.Budget
	bank    *object.Bank
	verdict run.Verdict // the last evaluated leaf's, overwritten per leaf

	// log and schedule record the trace events and scheduling picks of a
	// recording state; both are nil on a worker's leaf replays. rec is a
	// worker's recording state for the leaves it keeps, built on first use.
	log      *trace.Log
	schedule []int
	rec      *execState

	// The protocol's step machines on the single-goroutine stepped runner,
	// and the snapshot stack, one entry per chooser position the current
	// path advanced through.
	prog       *run.SteppedExec
	stepped    *sim.Stepped
	steppedCfg sim.SteppedConfig
	snaps      []snapshot
}

// snapshot is one between-steps state of a replay: exactly what a
// step can change. It is saved at the first scheduling decision after the
// chooser's position advanced, so it is a function of the choice prefix
// path[:pos] alone, and any later replay sharing that prefix may resume
// from it. Its buffers are reused from push to push.
type snapshot struct {
	pos      int // chooser position: the choices consumed to reach it
	logLen   int // when recording
	schedLen int // when recording
	sim      sim.SteppedSnapshot
	states   []core.State
	regs     []word.Word
	charges  []fault.Charge
	tracker  dedup.TrackerState // with dedup or reduction
	red      descent            // with reduction
}

// newExecState builds the replay machinery for one enumeration loop driven
// by the given chooser; record gives it a trace log and a schedule buffer.
// The settings must have passed prepare, which refuses protocols without a
// compiled form.
func newExecState(s *run.Settings, kind fault.Kind, c *chooser, dh *dedupHandle, record bool) *execState {
	es := &execState{s: s, kind: kind, c: c, dh: dh}
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
	if record {
		es.log = trace.New()
	}

	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}
	stepper, ok := core.Compile(s.Protocol)
	if !ok {
		panic(fmt.Sprintf("explore: %s has no Stepper; prepare refuses it", s.Protocol.Name()))
	}
	es.prog = run.NewSteppedExec(stepper, es.bank, s.Inputs)
	if dh != nil {
		es.tracker = dh.tracker
	}
	if s.Reduce != run.ReduceOff {
		if es.tracker == nil {
			es.tracker = dedup.NewTracker(s.Protocol.Objects(), s.Inputs, true)
		}
		es.red = newReducer(kind, len(s.Inputs), es.tracker, es.budget, es.prog.Pending)
	}
	var observer func(trace.Event)
	if es.tracker != nil {
		observer = es.tracker.Observe
	}
	es.stepped = sim.NewStepped(len(s.Inputs))
	es.steppedCfg = sim.SteppedConfig{
		Procs:     len(s.Inputs),
		Program:   es.prog,
		Scheduler: sim.SchedulerFunc(es.schedNext),
		StepLimit: limit,
		Log:       es.log,
		Observer:  observer,
	}
	return es
}

// schedNext is the replay scheduler: it first saves a snapshot when the
// chooser advanced since the last one; it folds the previous step into the
// reducer and cuts a sleep-blocked node (when reduction is on), consults the
// dedup set (when on, and only at a decision past es.probed), then follows
// the choice path through the branch alternatives this node exposes — the
// enabled set, or the reducer's filtered candidate set.
//
// The reducer's filter runs before the probe, so a sleep-blocked node is
// cut without probing or storing a fingerprint. The fingerprint is salted
// with the sleep set, so an entry stored there could only ever match
// another sleep-blocked node.
func (es *execState) schedNext(enabled []int) (int, bool) {
	c := es.c
	if len(es.snaps) == 0 || c.pos > es.snaps[len(es.snaps)-1].pos {
		es.push()
	}
	var cand []int
	if es.red != nil {
		es.red.advance()
		cand = es.red.candidates(enabled)
		if len(cand) == 0 {
			// Sleep-blocked: every continuation from this node is covered
			// below an earlier sibling.
			es.prunedAt = c.pos
			es.pruneSleep = true
			return 0, false
		}
	}
	if es.dh != nil && c.pos > es.probed {
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
		if es.log != nil {
			es.schedule = append(es.schedule, pick)
		}
		return pick, true
	}
	idx := 0
	if len(cand) > 1 {
		idx = c.choose(len(cand))
	}
	pick := cand[idx]
	es.red.chose(cand, idx)
	if es.log != nil {
		es.schedule = append(es.schedule, pick)
	}
	return pick, true
}

// push saves the current between-steps state on top of the snapshot
// stack, reusing a discarded entry's buffers when there is one.
func (es *execState) push() {
	if len(es.snaps) < cap(es.snaps) {
		es.snaps = es.snaps[:len(es.snaps)+1]
	} else {
		es.snaps = append(es.snaps, snapshot{})
	}
	sn := &es.snaps[len(es.snaps)-1]
	sn.pos = es.c.pos
	if es.log != nil {
		sn.logLen = es.log.Len()
		sn.schedLen = len(es.schedule)
	}
	es.stepped.Save(&sn.sim)
	sn.states = es.prog.AppendStates(sn.states[:0])
	sn.regs = es.bank.AppendContents(sn.regs[:0])
	sn.charges = es.budget.AppendCharges(sn.charges[:0])
	if es.tracker != nil {
		es.tracker.Save(&sn.tracker)
	}
	if es.red != nil {
		es.red.save(&sn.red)
	}
}

// rewind restores the deepest snapshot taken at or before chooser position
// changed and discards the deeper ones. Every choice before changed is the
// one the snapshot's replay made, so the state is the one a replay from the
// root would reach there. It reports false when the stack is empty (no
// replay has reached a scheduling decision yet).
func (es *execState) rewind(changed int) bool {
	k := len(es.snaps) - 1
	for k >= 0 && es.snaps[k].pos > changed {
		k--
	}
	if k < 0 {
		return false
	}
	es.snaps = es.snaps[:k+1]
	sn := &es.snaps[k]
	es.c.pos = sn.pos
	es.c.arity = es.c.arity[:sn.pos]
	if es.log != nil {
		es.log.Truncate(sn.logLen)
		es.schedule = es.schedule[:sn.schedLen]
	}
	es.stepped.Restore(&sn.sim)
	es.prog.RestoreStates(sn.states)
	es.bank.RestoreContents(sn.regs)
	es.budget.RestoreCharges(sn.charges)
	if es.tracker != nil {
		es.tracker.Restore(&sn.tracker)
	}
	if es.red != nil {
		es.red.restore(&sn.red)
	}
	return true
}

// restart resets the replay machinery to the initial state (a replay from
// the root) and drops every snapshot.
func (es *execState) restart() {
	es.c.pos = 0
	es.c.arity = es.c.arity[:0]
	es.budget.Reset()
	es.bank.Reset()
	if es.log != nil {
		es.log.Reset()
		es.schedule = es.schedule[:0]
	}
	es.snaps = es.snaps[:0]
	if es.tracker != nil {
		es.tracker.Reset()
	}
	if es.red != nil {
		es.red.reset()
	}
}

// runLeaf replays one execution along the chooser's path, reusing the
// execState's machinery, and evaluates it into es.verdict. It resumes from
// the deepest snapshot at or before the chooser's first changed position
// (restoring the root snapshot is a replay from scratch). When dedup or
// reduction is on and the replay reaches a state already claimed by a
// lexicographically smaller path (or a sleep-blocked node), it halts early
// and reports pruned=true (es.prunedAt records where, es.pruneSleep which
// mechanism); the replay is then neither evaluated nor counted — any
// violation visible in the halted prefix also appears below a smaller path.
//
// A resumed replay probes the dedup set only at decisions past the first
// changed position. A decision at or below it reaches a state that depends
// only on the prefix the previous replay shared: next, truncate and a task
// start only lower changed, and rewind restores only snapshots at or below
// it. That replay probed the state (or skipped it by this same rule) and
// was not pruned there, because a replay pruned at position p leaves
// changed below p. So with one worker the set would answer Revisit to each
// skipped probe; with more, the only difference is a prune another worker
// made possible in between, which costs work, not soundness or the
// lex-least counterexample. A replay from the root (an empty snapshot
// stack) probes every decision.
//
// es.verdict borrows slices owned by the runner and is overwritten by the
// next leaf; callers retaining a leaf (violations, trace samples) must go
// through keep, which clones everything.
func (es *execState) runLeaf(ctx context.Context) (runStats, bool, error) {
	es.prunedAt = -1
	es.probed = es.c.changed
	var res *sim.Result
	var err error
	if !es.rewind(es.c.changed) {
		es.probed = -1
		es.restart()
		err = es.stepped.Start(es.steppedCfg)
	}
	if err == nil {
		res, err = es.stepped.Resume(ctx)
	}
	es.c.changed = len(es.c.path)
	if err != nil && res == nil {
		return runStats{}, false, err
	}
	if err != nil && !errors.Is(err, sim.ErrWaitFreedom) {
		// Cancellation (or any future partial-result condition): the
		// truncated execution must not be evaluated as if it completed.
		return runStats{}, false, err
	}
	if es.prunedAt >= 0 {
		return runStats{}, true, nil
	}

	stats := runStats{faults: es.budget.TotalFaults()}
	for _, s := range res.Steps {
		if s > stats.maxSteps {
			stats.maxSteps = s
		}
	}
	run.EvaluateInto(&es.verdict, es.s.Inputs, res, err)
	return stats, false, nil
}

// keep returns the leaf the last runLeaf of a worker's state evaluated
// (with the given stats) as a self-contained Counterexample that stays valid
// while the worker keeps replaying. The leaf replay recorded nothing, so
// keep replays its path once more, from the root, on the worker's recording
// state. That replay runs the reducer when reduction is on, because a
// reduced path indexes the reducer's candidates, but never consults the
// dedup set: another worker may since have claimed a state on the path for
// a smaller one. It must reproduce the leaf's verdict and counts. A fixed
// Policy is opaque and may keep state across invocations, so a replay that
// differs is an error; keep never attaches the trace of a different
// execution.
func (es *execState) keep(stats runStats) (*Counterexample, error) {
	if es.rec == nil {
		es.rec = newExecState(es.s, es.kind, &chooser{}, nil, true)
	}
	rc := es.rec
	rc.c.path = append(rc.c.path[:0], es.c.path...)
	rc.c.changed = 0
	got, pruned, err := replayLeaf(rc)
	switch {
	case err != nil:
		return nil, fmt.Errorf("explore: recording replay of leaf %v: %w", es.c.path, err)
	case pruned || rc.c.pos != len(es.c.path) || len(rc.c.path) != len(es.c.path) ||
		got != stats || !sameVerdict(&rc.verdict, &es.verdict):
		return nil, fmt.Errorf("explore: recording replay of leaf %v does not reproduce it (leaf %s, replay %s): the fault policy is not a function of the choice path",
			es.c.path, es.verdict.String(), rc.verdict.String())
	}
	return rc.counterexample(), nil
}

// replayLeaf runs one leaf, converting the chooser's stale-choice panic (a
// replay whose tree differs from the one its path came from) into an error.
func replayLeaf(es *execState) (stats runStats, pruned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay diverged from its path: %v", r)
		}
	}()
	return es.runLeaf(context.Background())
}

// sameVerdict reports whether two verdicts judge the same outcome.
func sameVerdict(a, b *run.Verdict) bool {
	return a.Violation == b.Violation && a.Detail == b.Detail && a.Agreed == b.Agreed &&
		a.Stopped == b.Stopped && slices.Equal(a.Decided, b.Decided) && slices.Equal(a.Decisions, b.Decisions)
}

// counterexample clones a recording state's last leaf: its path, schedule,
// trace and verdict.
func (es *execState) counterexample() *Counterexample {
	verdict := es.verdict
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

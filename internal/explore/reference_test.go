package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/refsim"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refReplay is the reference form of one whole-tree enumeration: each
// protocol's Decide, the literal transcription of the paper's figures, on
// the goroutine-gated simulator, replayed from the initial state for every
// leaf along the chooser's path. It drives the same choice-driven fault
// policy and scheduler as the engine's execState, without dedup or
// reduction. The programs are bound once to one reused refsim.Arena, so a
// replay costs two channel handshakes per step and no allocation of
// goroutines or closures.
type refReplay struct {
	c        *chooser
	inputs   []int64
	budget   *fault.Budget
	bank     *object.Bank
	log      *trace.Log
	schedule []int
	arena    *refsim.Arena
	cfg      refsim.Config
}

// newRefReplay builds the reference replay machinery for settings that
// passed prepare; close releases the arena's goroutines.
func newRefReplay(s *run.Settings, kind fault.Kind, c *chooser) *refReplay {
	r := &refReplay{c: c, inputs: s.Inputs}
	r.budget = fault.NewFixedBudget(s.FaultyObjects, s.FaultsPerObject)
	policy := fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if !r.budget.Admits(op.Object) || !observable(kind, op) {
			return fault.NoFault
		}
		if r.c.choose(2) == 1 {
			return fault.Proposal{Kind: kind}
		}
		return fault.NoFault
	})
	r.bank = object.NewBank(s.Protocol.Objects(), r.budget, policy)
	r.log = trace.New()
	r.arena = refsim.NewArena(len(s.Inputs))
	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}
	r.cfg = refsim.Config{
		Programs: refsim.BoundPrograms(s.Protocol, r.bank, s.Inputs, r.arena.Procs()),
		Scheduler: sim.SchedulerFunc(func(enabled []int) (int, bool) {
			pick := enabled[0]
			if len(enabled) > 1 {
				pick = enabled[r.c.choose(len(enabled))]
			}
			r.schedule = append(r.schedule, pick)
			return pick, true
		}),
		StepLimit: limit,
		Log:       r.log,
	}
	return r
}

func (r *refReplay) close() { r.arena.Close() }

// runLeaf replays the chooser's path from the root and evaluates it.
func (r *refReplay) runLeaf() (run.Verdict, runStats, error) {
	r.c.pos = 0
	r.c.arity = r.c.arity[:0]
	r.budget.Reset()
	r.bank.Reset()
	r.log.Reset()
	r.schedule = r.schedule[:0]
	res, err := r.arena.Run(context.Background(), r.cfg)
	if err != nil && (res == nil || !errors.Is(err, sim.ErrWaitFreedom)) {
		return run.Verdict{}, runStats{}, err
	}
	stats := runStats{faults: r.budget.TotalFaults()}
	for _, s := range res.Steps {
		stats.maxSteps = max(stats.maxSteps, s)
	}
	return run.Evaluate(r.inputs, res, err), stats, nil
}

// CrossReport is the outcome of a compiled-vs-reference differential sweep.
type CrossReport struct {
	// Executions is the number of leaves both forms replayed.
	Executions int
	// Complete reports the full tree was enumerated (no divergence and the
	// cap was not hit).
	Complete bool
	// Diverged reports the forms disagreed; Path and Detail then identify
	// the lexicographically first diverging leaf and what differed.
	Diverged bool
	Path     []int
	Detail   string
}

// CrossCheck enumerates the execution tree leaf for leaf through BOTH
// execution forms — the reference (refReplay: Decide on the goroutine-gated
// simulator) and the engine's compiled step machines (execState) — and
// compares every observable of every leaf. The compiled leaf is replayed as
// an engine worker replays it, recording nothing; it must match the
// reference's extended choice path, verdict (violation, detail, decisions),
// step counts and fault tally. The leaf is then kept as the worker keeps a
// violation or a trace sample (execState.keep: one more replay of its path,
// with recording on), and that capture's schedule and full trace event log
// must match the reference's. The reference replays every leaf from the
// root; the compiled form resumes each from its snapshots, as the engine
// does, so the sweep also certifies incremental replay. The enumeration is
// driven by the reference, in its depth-first order, so the first
// divergence reported is the lexicographically least one; on a clean sweep
// both forms necessarily agree on the lex-least counterexample and on
// completeness.
//
// The sweep covers the checker's own choice-driven fault policy without
// dedup or reduction: it certifies the compiled form against the
// reference, and the engine-level tests compare every dedup, reduction and
// worker setting against that certified plain enumeration.
func CrossCheck(s *run.Settings) (*CrossReport, error) {
	if s.Policy != nil || s.Dedup || s.Reduce != run.ReduceOff {
		return nil, fmt.Errorf("explore: CrossCheck sweeps the plain tree of the checker's own fault policy: no fixed Policy, dedup or reduction")
	}
	kind, cap, err := prepare(s, nil)
	if err != nil {
		return nil, err
	}

	ic := &chooser{}
	ref := newRefReplay(s, kind, ic)
	defer ref.close()
	cc := &chooser{}
	ces := newExecState(s, kind, cc, nil, false)

	rep := &CrossReport{}
	for rep.Executions < cap {
		iv, istats, err := ref.runLeaf()
		if err != nil {
			return nil, fmt.Errorf("explore: crosscheck: reference leaf %v: %w", ic.path, err)
		}

		// Replay the same leaf through the compiled form: seed its chooser
		// with the reference's full extended path, rewinding it to the
		// first position where that path departs from the compiled form's
		// previous leaf, so every compiled leaf after the first is a
		// resumed one checked against a reference replayed from the root.
		// An equivalent compiled run consumes exactly those choices; a
		// structural divergence (different arity on the same prefix)
		// surfaces as the chooser's stale-choice panic, which is caught
		// and reported.
		cc.changed = min(cc.changed, commonPrefix(cc.path, ic.path))
		cc.path = append(cc.path[:0], ic.path...)
		rep.Executions++
		if diff := diffLeaf(ref, ces, iv, istats, ic); diff != "" {
			rep.Diverged = true
			rep.Path = append([]int(nil), ic.path...)
			rep.Detail = diff
			return rep, nil
		}
		if !ic.next() {
			rep.Complete = true
			return rep, nil
		}
	}
	return rep, nil
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []int) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// diffLeaf replays the reference's current leaf on the compiled execState
// and describes the first difference from the reference ("" when none):
// first between the event-free leaf and the reference, then between the
// leaf's recording replay and the reference. A chooser stale-choice panic
// (the compiled form branching where the reference did not) is reported as
// a difference instead of crashing the sweep.
func diffLeaf(ref *refReplay, ces *execState, iv run.Verdict, istats runStats, ic *chooser) string {
	cc := ces.c
	cstats, _, err := replayLeaf(ces)
	if err != nil {
		return fmt.Sprintf("compiled leaf failed: %v", err)
	}
	if cc.pos != len(ic.path) || len(cc.path) != len(ic.path) {
		return fmt.Sprintf("choice path: reference used %v, compiled consumed %d of %v",
			ic.path, cc.pos, cc.path)
	}
	cv := &ces.verdict
	if iv.Violation != cv.Violation || iv.Detail != cv.Detail {
		return fmt.Sprintf("verdict: reference %s, compiled %s", iv.String(), cv.String())
	}
	if iv.Agreed != cv.Agreed || iv.Stopped != cv.Stopped ||
		!reflect.DeepEqual(iv.Decided, cv.Decided) || !reflect.DeepEqual(iv.Decisions, cv.Decisions) {
		return fmt.Sprintf("decisions: reference %s (stopped=%v), compiled %s (stopped=%v)",
			iv.String(), iv.Stopped, cv.String(), cv.Stopped)
	}
	if istats != cstats {
		return fmt.Sprintf("stats: reference maxSteps=%d faults=%d, compiled maxSteps=%d faults=%d",
			istats.maxSteps, istats.faults, cstats.maxSteps, cstats.faults)
	}
	ce, err := ces.keep(cstats)
	if err != nil {
		return fmt.Sprintf("capture: %v", err)
	}
	if !slices.Equal(ref.schedule, ce.Schedule) {
		return fmt.Sprintf("schedule: reference %v, compiled %v", ref.schedule, ce.Schedule)
	}
	if diff := diffEvents(ref.log.Events(), ce.Trace.Events()); diff != "" {
		return "trace: " + diff
	}
	return ""
}

package explore

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/run"
)

// CrossReport is the outcome of a compiled-vs-interpreted differential
// sweep.
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
// execution forms — the goroutine-gated reference simulator and the
// compiled step machines — and compares every observable of every leaf:
// the extended choice path, the schedule, the verdict (violation, detail,
// decisions), the per-process step counts, the fault tally, and the full
// trace event log. The reference replays every leaf from the root; the
// compiled form resumes each from its snapshots, as the engine does, so
// the sweep also certifies incremental replay. The enumeration is driven
// by the interpreted form (the reference), in its depth-first order, so
// the first divergence reported is the lexicographically least one; on a
// clean sweep both forms necessarily agree on the lex-least counterexample
// and on completeness.
//
// The protocol must provide a Stepper (run.ExecCompiled would refuse it
// otherwise); dedup and fixed policies are outside CrossCheck's scope —
// it exists to certify the compiled form against the reference, and does so
// over the checker's own choice-driven fault policy.
func CrossCheck(s *run.Settings) (*CrossReport, error) {
	if s.Policy != nil {
		return nil, fmt.Errorf("explore: CrossCheck drives the checker's own fault policy, not a fixed Policy")
	}
	icfg, ccfg := *s, *s
	icfg.Exec = run.ExecInterpreted
	ccfg.Exec = run.ExecCompiled
	kind, cap, _, err := prepare(&icfg, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, _, _, err := prepare(&ccfg, nil, nil); err != nil {
		return nil, err
	}

	ic := &chooser{}
	ies := newExecState(&icfg, kind, false, ic, nil)
	defer ies.close()
	cc := &chooser{}
	ces := newExecState(&ccfg, kind, true, cc, nil)
	defer ces.close()

	rep := &CrossReport{}
	for rep.Executions < cap {
		iv, istats, _, err := ies.runLeaf(context.Background())
		if err != nil {
			return nil, fmt.Errorf("explore: crosscheck: interpreted leaf %v: %w", ic.path, err)
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
		cv, cstats, err := crossLeaf(ces)
		rep.Executions++
		if err != nil {
			rep.Diverged = true
			rep.Path = append([]int(nil), ic.path...)
			rep.Detail = err.Error()
			return rep, nil
		}
		if diff := diffLeaf(ies, ces, iv, cv, istats, cstats, ic, cc); diff != "" {
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

// crossLeaf replays one leaf on the compiled execState, converting a
// chooser stale-choice panic (the compiled form branching where the
// reference did not) into a divergence error instead of crashing the sweep.
func crossLeaf(es *execState) (v run.Verdict, stats runStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compiled form diverged structurally: %v", r)
		}
	}()
	v, stats, _, err = es.runLeaf(context.Background())
	if err != nil {
		err = fmt.Errorf("compiled leaf failed: %w", err)
	}
	return v, stats, err
}

// diffLeaf compares every observable of one leaf across the two forms and
// describes the first difference ("" when identical).
func diffLeaf(ies, ces *execState, iv, cv run.Verdict, istats, cstats runStats, ic, cc *chooser) string {
	if cc.pos != len(ic.path) || len(cc.path) != len(ic.path) {
		return fmt.Sprintf("choice path: interpreted used %v, compiled consumed %d of %v",
			ic.path, cc.pos, cc.path)
	}
	if !reflect.DeepEqual(ies.schedule, ces.schedule) {
		return fmt.Sprintf("schedule: interpreted %v, compiled %v", ies.schedule, ces.schedule)
	}
	if iv.Violation != cv.Violation || iv.Detail != cv.Detail {
		return fmt.Sprintf("verdict: interpreted %s, compiled %s", iv.String(), cv.String())
	}
	if iv.Agreed != cv.Agreed || iv.Stopped != cv.Stopped ||
		!reflect.DeepEqual(iv.Decided, cv.Decided) || !reflect.DeepEqual(iv.Decisions, cv.Decisions) {
		return fmt.Sprintf("decisions: interpreted %s (stopped=%v), compiled %s (stopped=%v)",
			iv.String(), iv.Stopped, cv.String(), cv.Stopped)
	}
	if istats != cstats {
		return fmt.Sprintf("stats: interpreted maxSteps=%d faults=%d, compiled maxSteps=%d faults=%d",
			istats.maxSteps, istats.faults, cstats.maxSteps, cstats.faults)
	}
	if diff := diffEvents(ies.log.Events(), ces.log.Events()); diff != "" {
		return "trace: " + diff
	}
	return ""
}

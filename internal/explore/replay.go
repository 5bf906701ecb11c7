package explore

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/run"
	"repro/internal/sim"
)

// Replay re-executes the single execution identified by a choice path
// (as recorded in Counterexample.Path) under the same settings and returns
// its counterexample record. Because the simulator is deterministic, the
// replay reproduces the original execution event for event — the standard
// way to inspect, shrink, or export a violation found during exploration.
// A path shorter than its execution stands for its first-fill extension
// (zeros). A path that names no execution is an error, checked as Leaves
// checks a prefix.
func Replay(s *run.Settings, path []int) (*Counterexample, error) {
	kind, _, err := prepare(s, nil)
	if err != nil {
		return nil, err
	}
	if err := nonNegative("path", path); err != nil {
		return nil, err
	}
	c := &chooser{path: append([]int(nil), path...)}
	es := newExecState(s, kind, c, nil, true)
	if err := leafBelow(es, "path", path); err != nil {
		return nil, err
	}
	return es.counterexample(), nil
}

// Leaves walks every execution below the state a choice-path prefix names,
// in lexicographic order, and calls visit with each leaf's full choice path
// and verdict. Both are reused by the next leaf, so visit must copy what it
// keeps. With solo ≥ 0, only process solo steps past the prefix and each
// execution ends when it finishes; fault choices still branch. These are
// the solo extensions the valency proofs probe.
//
// A walk never stops short: a subtree with more leaves than the settings'
// execution cap is an error, and so are dedup and reduction, which prune
// leaves. A prefix that names no state is an error too: a negative choice,
// a choice past the alternatives its node offers, or more choices than its
// execution makes. ctx is checked before each leaf: a cancelled walk stops
// there and returns ctx's error.
func Leaves(ctx context.Context, s *run.Settings, prefix []int, solo int, visit func(path []int, v run.Verdict)) error {
	kind, cap, err := prepare(s, nil)
	if err != nil {
		return err
	}
	if s.Dedup || s.Reduce != run.ReduceOff {
		return errors.New("explore: Leaves visits every leaf; dedup and reduction prune some")
	}
	if solo >= len(s.Inputs) {
		return fmt.Errorf("explore: solo process %d out of range", solo)
	}
	if err := nonNegative("prefix", prefix); err != nil {
		return err
	}
	c := &chooser{path: append([]int(nil), prefix...), lb: len(prefix)}
	es := newExecState(s, kind, c, nil, false)
	if solo >= 0 {
		only := []int{solo}
		es.steppedCfg.Scheduler = sim.SchedulerFunc(func(enabled []int) (int, bool) {
			switch {
			case c.pos < len(prefix):
				return es.schedNext(enabled)
			case slices.Contains(enabled, solo):
				return es.schedNext(only)
			default:
				return 0, false // the solo process has finished
			}
		})
	}
	for n := 0; ; n++ {
		if n == cap {
			return fmt.Errorf("explore: subtree at %v exceeds %d executions", prefix, cap)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := leafBelow(es, "prefix", prefix); err != nil {
			return err
		}
		visit(c.path, es.verdict)
		if !c.next() {
			return nil
		}
	}
}

// nonNegative refuses a choice path with a negative choice: it names no
// state. what names the path in the error ("path" or "prefix").
func nonNegative(what string, path []int) error {
	if i := slices.IndexFunc(path, func(choice int) bool { return choice < 0 }); i >= 0 {
		return fmt.Errorf("explore: %s %v names no state: choice %d at position %d", what, path, path[i], i)
	}
	return nil
}

// leafBelow runs the chooser's current leaf, which must extend path, and
// refuses a path the execution does not follow: a choice past the
// alternatives its node offers, or more choices than the execution makes.
func leafBelow(es *execState, what string, path []int) error {
	if err := leaf(es); err != nil {
		var stale staleChoice
		if errors.As(err, &stale) {
			return fmt.Errorf("explore: %s %v names no state: position %d offers %d alternatives", what, path, stale.pos, stale.n)
		}
		return err
	}
	if es.c.pos < len(path) {
		return fmt.Errorf("explore: %s %v names no state: its execution ends after %d choices", what, path, es.c.pos)
	}
	return nil
}

// leaf runs the chooser's current leaf. A stale choice panics in choose:
// out of a scheduling decision directly, out of a fault decision as the
// runner's PanicError. Either way leaf returns the staleChoice itself.
func leaf(es *execState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stale, ok := r.(staleChoice)
			if !ok {
				panic(r)
			}
			err = stale
		}
	}()
	_, _, err = es.runLeaf()
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		if stale, ok := pe.Value.(staleChoice); ok {
			return stale
		}
	}
	return err
}

// Package valency operationalizes the proof technique of Section 5 of the
// paper (inherited from Herlihy's impossibility arguments and FLP): the
// *valence* of a system state is the set of decision values still reachable
// in some extension of the execution.
//
// A state is multivalent when at least two decision values remain possible,
// univalent (x-valent) when only one does, and a step out of a multivalent
// state into a univalent one is a decision step. The impossibility proofs
// construct a critical state — a multivalent state whose every enabled step
// is a decision step — and derive a contradiction from indistinguishability
// of its successors. This package computes those objects *exactly*, by
// exhaustive enumeration of the model checker's choice tree
// (explore.Leaves), so the proof's skeleton can be exhibited (and tested) on
// concrete protocols.
//
// States are identified by choice-path prefixes: the sequence of
// scheduler/fault decisions that leads to the state from the initial one
// (the same representation the model checker in internal/explore uses).
// The settings describe the system as they do for the model checker:
// protocol, inputs, faulty objects and per-object bound, fault kind and
// execution cap. Dedup and reduction are refused, since they prune
// extensions a valence must see.
package valency

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/explore"
	"repro/internal/run"
)

// Valence is the analysis result for one state (choice-path prefix).
type Valence struct {
	// Prefix identifies the state.
	Prefix []int
	// Values are the decision values reachable in extensions of the
	// state, ascending. With a correct protocol every execution is
	// consistent and Values is the classical valence; if any extension
	// violates consistency, Violated is set and Values collects every
	// decided value observed.
	Values []int64
	// Violated reports that some extension violates a consensus
	// requirement (the protocol is incorrect in this configuration).
	Violated bool
	// Executions is the number of complete extensions enumerated.
	Executions int
}

// Multivalent reports whether at least two decision values remain possible.
func (v Valence) Multivalent() bool { return len(v.Values) >= 2 }

// Univalent reports whether exactly one decision value remains possible.
func (v Valence) Univalent() bool { return len(v.Values) == 1 }

// String renders the valence compactly.
func (v Valence) String() string {
	kind := "multivalent"
	if v.Univalent() {
		kind = fmt.Sprintf("%d-valent", v.Values[0])
	}
	if v.Violated {
		kind += " (violations reachable)"
	}
	return fmt.Sprintf("state %v: %s, values %v over %d executions", v.Prefix, kind, v.Values, v.Executions)
}

// add folds one extension's verdict into the valence: the values decided
// by proc, or by every process when proc < 0.
func (v *Valence) add(verdict run.Verdict, proc int) {
	v.Executions++
	if !verdict.OK() {
		v.Violated = true
	}
	for i, ok := range verdict.Decided {
		if ok && (proc < 0 || i == proc) && !verdict.Decisions[i].IsBottom() {
			val := verdict.Decisions[i].Value()
			if at, found := slices.BinarySearch(v.Values, val); !found {
				v.Values = slices.Insert(v.Values, at, val)
			}
		}
	}
}

// walk enumerates the extensions of the state the prefix names, past the
// prefix only process solo's when solo ≥ 0 (explore.Leaves). It returns the
// state's valence over the values proc decides (every process's when
// proc < 0), its successors' valences grouped by the choice at the
// prefix's frontier, and, when an extension violates consensus, an error
// naming the first one.
func walk(s *run.Settings, prefix []int, solo, proc int) (state Valence, children []Valence, violation, err error) {
	state.Prefix = slices.Clone(prefix)
	err = explore.Leaves(context.Background(), s, prefix, solo, func(path []int, verdict run.Verdict) {
		state.add(verdict, proc)
		if !verdict.OK() && violation == nil {
			violation = fmt.Errorf("valency: state %v has violating extensions, first %v: %s", prefix, path, verdict)
		}
		if len(path) > len(prefix) {
			c := path[len(prefix)]
			if c == len(children) {
				children = append(children, Valence{Prefix: slices.Clone(path[:len(prefix)+1])})
			}
			children[c].add(verdict, proc)
		}
	})
	if err != nil {
		return Valence{}, nil, nil, err
	}
	return state, children, violation, nil
}

// Compute determines the valence of the state identified by prefix by
// enumerating every extension. It returns an error if the enumeration
// cannot be completed within the settings' execution cap (the result would
// not be exact) or if the prefix names no state.
func Compute(s *run.Settings, prefix []int) (Valence, error) {
	v, _, _, err := walk(s, prefix, -1, -1)
	return v, err
}

// Critical is a multivalent state whose every enabled step leads to a
// univalent state — the object the impossibility proofs construct.
type Critical struct {
	// Prefix identifies the critical state.
	Prefix []int
	// State is the critical state's own valence.
	State Valence
	// Children holds the valence of each successor, indexed by choice.
	Children []Valence
}

// FindCritical walks the choice tree from the initial state, always
// stepping into a multivalent child, until it reaches a state whose
// children are all univalent. Each step enumerates the current state's
// extensions once. For a correct wait-free protocol with at least two
// distinct inputs such a state must exist (the walk strictly descends a
// finite tree and the initial state is multivalent by validity). A
// configuration whose initial state has violating extensions is not a
// correct protocol, and FindCritical names the first violation instead.
func FindCritical(s *run.Settings) (*Critical, error) {
	var prefix []int
	state, children, violation, err := walk(s, prefix, -1, -1)
	switch {
	case err != nil:
		return nil, err
	case violation != nil:
		return nil, violation
	case !state.Multivalent():
		return nil, fmt.Errorf("valency: initial state is %s; need ≥2 distinct inputs", state)
	}
	// A violation-free multivalent state has successors: an execution that
	// makes no further choice decides one value.
	for {
		next := slices.IndexFunc(children, Valence.Multivalent)
		if next < 0 {
			return &Critical{Prefix: prefix, State: state, Children: children}, nil
		}
		prefix = append(prefix, next)
		if state, children, _, err = walk(s, prefix, -1, -1); err != nil {
			return nil, err
		}
	}
}

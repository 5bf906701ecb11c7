// Package object implements the shared objects of the paper's model: the
// CAS object of Section 3.3 — which exposes only the CAS operation and can
// manifest any of the functional faults of Sections 3.3–3.4 — and the bank
// of them one execution shares.
//
// The fault pipeline per invocation is: the configured fault.Policy proposes
// a fault; the proposal is admitted only if it is observable (it would
// actually violate the CAS postconditions Φ, per Definition 1) and within
// the fault.Budget (Definition 3); admitted faults are charged and applied.
package object

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/word"
)

// CAS is a CAS object: a register supporting only the compare-and-swap
// operation. Protocols cannot read it; the Content method exists for
// checkers and adversaries only.
type CAS struct {
	id      int
	content word.Word
	budget  *fault.Budget
	policy  fault.Policy
	// ops, when non-nil, is the bank-wide invocation counter, bumped
	// inside Do, within the atomic step the runner granted.
	ops *int64
}

// NewCAS returns a CAS object initialized to ⊥. budget and policy may be nil
// for a fault-free object.
func NewCAS(id int, budget *fault.Budget, policy fault.Policy) *CAS {
	if policy == nil {
		policy = fault.Never()
	}
	return &CAS{id: id, budget: budget, policy: policy}
}

// ID returns the object's id.
func (o *CAS) ID() int { return o.id }

// Content returns the current register content. It is a monitor-side
// operation: the CAS object type offers no read operation to protocols
// (Section 3.3), and no protocol code calls it.
func (o *CAS) Content() word.Word { return o.content }

// Reset restores the initial state ⊥ (fresh executions during exploration).
func (o *CAS) Reset() { o.content = word.Bottom }

// Corrupt replaces the register content outside any operation — a memory
// data fault in the model of Afek et al. (Section 3.1), used to contrast
// data faults with functional faults. It returns the displaced content.
func (o *CAS) Corrupt(v word.Word) word.Word {
	old := o.content
	o.content = v
	return old
}

// Do executes one atomic CAS action directly, without scheduling and
// without building a trace event: it consults the fault policy and budget,
// updates the register, and returns the old value along with the fault kind
// that manifested (fault.None when the specification Φ held). Replay loops
// that record nothing call Do; Apply wraps it with the event.
func (o *CAS) Do(proc int, exp, new word.Word) (word.Word, fault.Kind) {
	if o.ops != nil {
		*o.ops++
	}
	pre := o.content
	prop := o.policy.Decide(fault.Op{
		Object:  o.id,
		Proc:    proc,
		Exp:     exp,
		New:     new,
		Current: pre,
	})

	// Specification behaviour (Φ): write iff pre == exp; return pre.
	kind := prop.Kind
	write := pre == exp
	stored := new
	old := pre

	switch kind {
	case fault.None:
		// Specification behaviour stands.
	case fault.Overriding:
		// Φ′: R = val ∧ old = R′. Observable only when the comparison
		// would have failed AND the written value actually differs
		// from the current content (overriding with the same word
		// leaves a state satisfying Φ — no fault per Definition 1).
		if pre == exp || new == pre || !o.admit() {
			kind = fault.None
		} else {
			write = true
		}
	case fault.Silent:
		// The new value is not written even though the comparison
		// succeeds. Observable only when it would have succeeded and
		// the write would have changed the content.
		if pre != exp || new == pre || !o.admit() {
			kind = fault.None
		} else {
			write = false
		}
	case fault.Invisible:
		// The returned old value is incorrect; the write behaviour
		// follows the specification. A ⊥ (zero) Return means the
		// policy left the corruption unspecified: fall back to the
		// classic corruption of pretending the opposite comparison
		// outcome.
		ret := prop.Return
		if ret.IsBottom() {
			if pre == exp {
				ret = new
			} else {
				ret = exp
			}
		}
		if ret == pre || !o.admit() {
			kind = fault.None
		} else {
			old = ret
		}
	case fault.Arbitrary:
		// An arbitrary value is written regardless of the inputs.
		target := prop.Write
		correct := pre
		if pre == exp {
			correct = new
		}
		if target == correct || !o.admit() {
			kind = fault.None
		} else {
			write = true
			stored = target
		}
	case fault.Nonresponsive:
		if !o.admit() {
			kind = fault.None
		}
		// The caller is responsible for never returning: the compiled
		// path reports the process stalled (run.SteppedExec).
	default:
		panic(fmt.Sprintf("object: unknown fault kind %v", kind))
	}

	if write && kind != fault.Nonresponsive {
		o.content = stored
	}
	return old, kind
}

// admit charges one fault to the object when the budget admits it.
func (o *CAS) admit() bool {
	if o.budget == nil || !o.budget.Admits(o.id) {
		return false
	}
	o.budget.Charge(o.id)
	return true
}

// Apply executes one atomic CAS action directly, as Do does, and also
// returns the trace event describing what happened: the compiled path calls
// it when something records the step.
func (o *CAS) Apply(proc int, exp, new word.Word) (word.Word, trace.Event) {
	pre := o.content
	old, kind := o.Do(proc, exp, new)
	return old, trace.Event{
		Kind:   trace.EventCAS,
		Proc:   proc,
		Object: o.id,
		Exp:    exp,
		New:    new,
		Pre:    pre,
		Post:   o.content,
		Old:    old,
		Fault:  kind,
	}
}

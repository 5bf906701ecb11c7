// Package fault implements the functional-fault model of Section 3 of the
// paper: fault kinds for the CAS operation (Section 3.3–3.4), the (f, t, n)
// tolerance budget of Definition 3, and pluggable fault policies that decide,
// per operation invocation, whether a fault fires.
//
// A policy *proposes* a fault; the Budget *admits* it. Only admitted faults
// that actually deviate from the CAS postconditions Φ are charged against the
// budget, matching Definition 1 (a fault "occurs" only when Φ is violated).
package fault

import "fmt"

// Kind enumerates the CAS functional faults discussed in the paper.
type Kind int

const (
	// None means the operation follows its sequential specification Φ.
	None Kind = iota

	// Overriding is the paper's case-study fault (Section 3.3): the new
	// value is written even when the register content differs from the
	// expected value. The returned old value is still correct, so the
	// relaxed postcondition Φ′ is  R = val ∧ old = R′.
	Overriding

	// Silent (Section 3.4): the new value is not written even though the
	// register content equals the expected value. The returned old value
	// is still correct (it equals the expected value).
	Silent

	// Invisible (Section 3.4): the returned old value is incorrect. The
	// write behaviour itself follows the specification. Reducible to a
	// data fault in the model of Afek et al.
	Invisible

	// Arbitrary (Section 3.4): an arbitrary value is written to the
	// register regardless of the operation's input. Comparable to the
	// responsive arbitrary data fault of Jayanti et al.
	Arbitrary

	// Nonresponsive (Section 3.4): the operation never returns. Proven
	// insurmountable for consensus; modeled so the liveness failure can be
	// demonstrated, never tolerated.
	Nonresponsive
)

// String returns the paper's name for the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Overriding:
		return "overriding"
	case Silent:
		return "silent"
	case Invisible:
		return "invisible"
	case Arbitrary:
		return "arbitrary"
	case Nonresponsive:
		return "nonresponsive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unbounded marks an unlimited number of faults per faulty object (t = ∞ in
// Definition 3).
const Unbounded = -1

// Budget enforces Definition 3: at most f faulty objects in the execution and
// at most t functional faults per faulty object. The faulty-object set may be
// fixed up front (the usual adversarial setting, where the adversary commits
// to which objects are faulty) or discovered lazily (first f distinct objects
// that fault become the faulty set).
//
// Budget is not safe for concurrent use; the simulator serializes all steps.
// The atomicx backend wraps it in a mutex.
type Budget struct {
	f int // max faulty objects
	t int // max faults per faulty object, or Unbounded

	// slot is indexed by object id: slot[id] is one more than the index in
	// ids and used of a tracked object — a member of the fixed faulty set,
	// or one a lazy set has discovered — and 0 for an untracked one (ids
	// beyond its length are untracked too). Object ids are small and dense
	// (a Bank numbers its objects from 0), so the per-step Admits is two
	// slice reads, and the per-execution work (totals, resets, snapshots)
	// walks ids.
	slot  []int
	ids   []int // tracked objects, in the order they joined
	used  []int // faults charged per tracked object
	fixed bool  // faulty set fixed up front
}

// NewBudget returns a budget admitting at most maxFaultyObjects faulty
// objects with at most faultsPerObject faults each (Unbounded for t = ∞).
// The faulty-object set is discovered lazily.
func NewBudget(maxFaultyObjects, faultsPerObject int) *Budget {
	if maxFaultyObjects < 0 {
		panic("fault: negative faulty-object bound")
	}
	if faultsPerObject < 0 && faultsPerObject != Unbounded {
		panic("fault: negative per-object fault bound")
	}
	return &Budget{f: maxFaultyObjects, t: faultsPerObject}
}

// NewFixedBudget returns a budget whose faulty-object set is exactly the
// given object ids (|set| counts toward f = len(objects)). Objects outside
// the set never fault regardless of policy proposals.
func NewFixedBudget(objects []int, faultsPerObject int) *Budget {
	b := NewBudget(len(objects), faultsPerObject)
	b.fixed = true
	for _, id := range objects {
		b.track(id)
	}
	return b
}

// index returns the object's index in ids and used, or -1 when the object
// is not tracked.
func (b *Budget) index(object int) int {
	if uint(object) < uint(len(b.slot)) {
		return b.slot[object] - 1
	}
	return -1
}

// track returns the object's index in ids and used, adding it to the
// tracked set first when it is not there yet.
func (b *Budget) track(object int) int {
	if i := b.index(object); i >= 0 {
		return i
	}
	for len(b.slot) <= object {
		b.slot = append(b.slot, 0)
	}
	i := len(b.ids)
	b.slot[object] = i + 1
	b.ids = append(b.ids, object)
	b.used = append(b.used, 0)
	return i
}

// Admits reports whether one more fault on the given object would stay
// within the budget. It does not charge the budget.
func (b *Budget) Admits(object int) bool {
	used := 0
	if i := b.index(object); i >= 0 {
		used = b.used[i]
	} else if b.fixed {
		return false // object is outside the fixed faulty set
	} else if len(b.ids) >= b.f {
		return false // would exceed f faulty objects
	}
	return b.t == Unbounded || used < b.t
}

// Charge records one fault against the object. It panics if the fault is not
// admitted: callers must check Admits first, and a violation indicates a
// framework bug rather than a recoverable condition.
func (b *Budget) Charge(object int) {
	if !b.Admits(object) {
		panic(fmt.Sprintf("fault: budget violated charging object %d", object))
	}
	b.used[b.track(object)]++
}

// FaultyObjects returns the ids of objects that are designated faulty (fixed
// set) or have faulted at least once (lazy set), in unspecified order.
func (b *Budget) FaultyObjects() []int { return append([]int(nil), b.ids...) }

// Faults returns the number of faults charged to the object so far.
func (b *Budget) Faults(object int) int {
	if i := b.index(object); i >= 0 {
		return b.used[i]
	}
	return 0
}

// TotalFaults returns the number of faults charged across all objects.
func (b *Budget) TotalFaults() int {
	total := 0
	for _, n := range b.used {
		total += n
	}
	return total
}

// FaultsPerObject returns the t parameter (Unbounded for t = ∞).
func (b *Budget) FaultsPerObject() int { return b.t }

// Reset discharges all recorded faults, returning the budget to its pristine
// state: a fixed faulty set keeps its members at zero charges, a lazy set
// forgets the discovered objects. Replay loops reuse one budget this way
// instead of cloning per execution.
func (b *Budget) Reset() {
	if b.fixed {
		clear(b.used)
		return
	}
	for _, id := range b.ids {
		b.slot[id] = 0
	}
	b.ids = b.ids[:0]
	b.used = b.used[:0]
}

// Charge is one object's fault charge, as AppendCharges saves it.
type Charge struct {
	Object, Faults int
}

// AppendCharges appends the charge of every object the budget tracks (the
// fixed faulty set, or the objects a lazy set has discovered) to dst and
// returns the extended slice.
func (b *Budget) AppendCharges(dst []Charge) []Charge {
	for i, id := range b.ids {
		dst = append(dst, Charge{Object: id, Faults: b.used[i]})
	}
	return dst
}

// RestoreCharges returns the budget to the charges AppendCharges saved from
// it, rewinding a replay to an earlier step without allocating.
func (b *Budget) RestoreCharges(src []Charge) {
	b.Reset()
	for _, c := range src {
		b.used[b.track(c.Object)] = c.Faults
	}
}

package explore

import (
	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/word"
)

// reducer implements dynamic partial-order reduction over the replay tree:
// sleep sets over the choice-path frontier and process-symmetry
// canonicalization at branch points.
//
// The model makes the classical theory unusually concrete. A transition is
// one granted step of a process, and every process's step machine declares
// the CAS it will issue next (sim.PendingOp) without taking it. Two pending
// operations are independent iff they touch disjoint objects, or they touch
// the same object and both are pure reads — a CAS that can neither change
// the register nor consume fault budget in the current state:
//
//	pure(o, exp, new) :=  new == reg[o]                       // no-op write
//	                   || reg[o] != exp && !(kind == Overriding && admits(o))
//
// A failing CAS writes nothing and observes only the register; it is impure
// only when an overriding fault could fire on it (the fault branch both
// rewrites the register and consumes budget). A succeeding CAS that changes
// the register is never pure, which also covers the silent-fault branch.
//
// Everything the reducer consults — the register contents and per-process
// digests (dedup.Tracker), the remaining fault budget, the pending
// operations — is a deterministic function of the choice-path prefix, so
// the reduced tree has a stable shape across replays, workers, and resumed
// checkpoints: the chooser's stale-choice panic and the manifest's reduce
// field enforce exactly this.
//
// Soundness (verdict preservation) is the classical argument; reduction
// additionally preserves the lexicographically least counterexample: every
// cut branch has, by independence, a permuted twin below an earlier
// (lex-smaller) sibling with the same verdict, so by well-founded induction
// the lex-least violator is never cut. Symmetry skips keep the verdict and
// the lex-least path but may rename processes inside the counterexample's
// schedule when two processes share an input. See docs/MODEL.md,
// "Partial-order reduction".
type reducer struct {
	kind      fault.Kind
	n         int
	tracker   *dedup.Tracker
	budget    *fault.Budget
	pendingOf func(id int) sim.PendingOp

	descent
	cand []int // candidate scratch, reused across decisions
}

// descent is the reducer's per-replay state, a function of the choice-path
// prefix: sleep is the current sleep set (bit per process); the last*
// fields describe the step granted at the previous decision, folded into
// sleep lazily at the next decision (advance). It is the reducer's share
// of a between-steps snapshot (save, restore).
type descent struct {
	sleep     uint64
	lastValid bool
	lastOp    sim.PendingOp
	preReg    word.Word
	preTotal  int
	earlier   []int // kept candidates preceding the chosen one
}

// newReducer builds the reduction state for one enumeration loop. The
// tracker is shared with deduplication when both are on — it is the single
// canonical-state observer of the replay.
func newReducer(kind fault.Kind, n int, tracker *dedup.Tracker, budget *fault.Budget, pendingOf func(id int) sim.PendingOp) *reducer {
	return &reducer{kind: kind, n: n, tracker: tracker, budget: budget, pendingOf: pendingOf}
}

// reset clears the descent state (fresh replay from the root).
func (r *reducer) reset() {
	r.descent = descent{earlier: r.earlier[:0]}
}

// save copies the descent state into dst, reusing dst's buffer.
func (r *reducer) save(dst *descent) {
	earlier := append(dst.earlier[:0], r.earlier...)
	*dst = r.descent
	dst.earlier = earlier
}

// restore rewinds the descent state to one save took.
func (r *reducer) restore(src *descent) {
	earlier := append(r.earlier[:0], src.earlier...)
	r.descent = *src
	r.earlier = earlier
}

// pure reports that executing op in the current state can neither change
// its object's register nor consume fault budget — the operation is
// invisible to every other process.
func (r *reducer) pure(op sim.PendingOp) bool {
	reg := r.tracker.Register(op.Obj)
	if op.New == reg {
		// Whether it succeeds or fails, the register keeps its value, and
		// neither fault kind is observable on it (both require a change).
		return true
	}
	if reg != op.Exp {
		// Failing CAS: only an admitted overriding fault could make it
		// write (and charge the budget).
		return !(r.kind == fault.Overriding && r.budget.Admits(op.Obj))
	}
	return false
}

// advance folds the previously granted step into the sleep set: a process
// stays asleep while the steps taken since it was passed over remain
// independent of its pending operation, and the passed-over earlier
// siblings of the last decision fall asleep under the same condition.
// Purity of the executed step is established from ground truth — the
// tracked register and the budget are compared against their pre-step
// snapshots — so a mispredicted fault branch can never leave a process
// asleep through a visible step.
func (r *reducer) advance() {
	if !r.lastValid {
		return
	}
	lastPure := r.tracker.Register(r.lastOp.Obj) == r.preReg &&
		r.budget.TotalFaults() == r.preTotal
	var next uint64
	consider := func(q int) {
		qOp := r.pendingOf(q)
		if qOp.Obj != r.lastOp.Obj || (lastPure && r.pure(qOp)) {
			next |= 1 << uint(q)
		}
	}
	for q := 0; q < r.n; q++ {
		if r.sleep&(1<<uint(q)) != 0 {
			consider(q)
		}
	}
	for _, q := range r.earlier {
		consider(q)
	}
	r.sleep = next
	r.lastValid = false
	r.earlier = r.earlier[:0]
}

// candidates filters the enabled set down to the branch alternatives this
// node explores: sleeping processes are cut, a process whose local-state
// digest equals an earlier kept candidate's is cut as a renaming of it.
// enabled is ascending; the result preserves that order. An empty result means the whole node is redundant
// (sleep-blocked): every continuation is covered below an earlier sibling.
func (r *reducer) candidates(enabled []int) []int {
	cand := r.cand[:0]
	for _, p := range enabled {
		if r.sleep&(1<<uint(p)) != 0 {
			continue
		}
		sym := false
		for _, kept := range cand {
			if r.tracker.ProcDigest(kept) == r.tracker.ProcDigest(p) {
				sym = true
				break
			}
		}
		if sym {
			continue
		}
		cand = append(cand, p)
	}
	r.cand = cand
	return cand
}

// chose records the decision taken at this node: the passed-over earlier
// candidates (they fall asleep in the siblings' subtrees) and the pre-step
// snapshot of the chosen operation's register and the fault total, against
// which advance establishes the step's purity.
func (r *reducer) chose(cand []int, idx int) {
	r.earlier = append(r.earlier[:0], cand[:idx]...)
	pick := cand[idx]
	r.lastOp = r.pendingOf(pick)
	r.preReg = r.tracker.Register(r.lastOp.Obj)
	r.preTotal = r.budget.TotalFaults()
	r.lastValid = true
}

// salt folds the sleep set into a dedup fingerprint. With both reductions
// on, two visits to the same canonical state are interchangeable only if
// they also carry the same sleep set — the stored visit explored only the
// non-sleeping successors, so pruning a visit with a smaller sleep set
// would silently drop the extra branches it was entitled to.
func (r *reducer) salt(fp dedup.Fingerprint) dedup.Fingerprint {
	v := r.sleep * 0x9e3779b97f4a7c15
	v ^= v >> 29
	fp.Hi ^= v * 0xbf58476d1ce4e5b9
	fp.Lo ^= (v + 0xcbf29ce484222325) * 0x94d049bb133111eb
	return fp
}

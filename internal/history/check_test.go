// Package history records concurrent CAS histories and checks them for
// linearizability — against the strict sequential specification Φ of the
// CAS operation, and against the overriding relaxation Φ′ of Section 3.3
// under an (f, t) fault budget.
//
// This is the correctness bridge for the real-concurrency substrate
// (internal/atomicx): the deterministic simulator is sequentially
// consistent by construction, but the atomic backend's faulty CAS (an
// unconditional Swap) is only trustworthy if its concurrent histories
// linearize to sequences in which every operation follows Φ or, for at
// most f objects and at most t operations each, Φ′. The checker implements
// the classic Wing–Gong search with memoization.
//
// The package is test code only: its tests hold the atomics substrate to
// the checker, and nothing outside them needs it.
package history

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/word"
)

// Op is one completed CAS operation in a concurrent history. Invoke and
// Return are logical timestamps drawn from one atomic counter: Invoke is
// taken on entry, Return on exit, so op A precedes op B in real time iff
// A.Return < B.Invoke.
type Op struct {
	Proc   int
	Object int
	Invoke int64
	Return int64
	Exp    word.Word
	New    word.Word
	Old    word.Word
}

func (o Op) String() string {
	return fmt.Sprintf("p%d CAS(O%d, %s, %s)=%s [%d,%d]",
		o.Proc, o.Object, o.Exp, o.New, o.Old, o.Invoke, o.Return)
}

// Env is the minimal environment the recorder wraps (structurally matches
// core.Env).
type Env interface {
	CAS(i int, exp, new word.Word) word.Word
	Len() int
}

// Recorder wraps an Env and records every CAS with invocation/response
// timestamps. It is safe for concurrent use.
type Recorder struct {
	inner Env
	clock atomic.Int64

	mu  sync.Mutex
	ops []Op
}

// NewRecorder wraps env.
func NewRecorder(env Env) *Recorder { return &Recorder{inner: env} }

// CAS implements Env, recording the operation.
func (r *Recorder) CAS(i int, exp, new word.Word) word.Word {
	inv := r.clock.Add(1)
	old := r.inner.CAS(i, exp, new)
	ret := r.clock.Add(1)
	r.mu.Lock()
	r.ops = append(r.ops, Op{Object: i, Invoke: inv, Return: ret, Exp: exp, New: new, Old: old})
	r.mu.Unlock()
	return old
}

// Len implements Env.
func (r *Recorder) Len() int { return r.inner.Len() }

// Ops returns the recorded history (order of completion, unsorted).
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

// Budget bounds the relaxation allowed during linearization: at most F
// objects may have faulty linearization points, at most T each (T < 0 for
// unbounded). The zero Budget admits no faults — strict linearizability.
type Budget struct {
	F int
	T int
}

// Check searches for a linearization of the history in which every
// operation satisfies Φ, except that operations on at most budget.F objects
// may satisfy only the overriding Φ′ (write despite a mismatch, truthful
// old), at most budget.T times per object. It reports whether one exists.
//
// The search is exponential in the worst case; keep histories small
// (≤ ~16 operations) or well-ordered.
func Check(ops []Op, objects int, budget Budget) bool {
	n := len(ops)
	if n == 0 {
		return true
	}
	if n > 63 {
		panic("history: history too long to check")
	}

	type stateKey struct {
		done     uint64
		contents string
		spent    string
	}
	memo := map[stateKey]bool{}

	contents := make([]word.Word, objects)
	faults := make([]int, objects)

	var dfs func(done uint64) bool
	dfs = func(done uint64) bool {
		if done == uint64(1)<<n-1 {
			return true
		}
		key := stateKey{done: done, contents: fmt.Sprint(contents), spent: fmt.Sprint(faults)}
		if v, ok := memo[key]; ok {
			return v
		}

		// Earliest return among un-linearized ops: an op is eligible
		// to linearize next only if its invocation precedes every
		// other remaining op's return (otherwise it strictly follows
		// one of them in real time).
		minRet := int64(1<<62 - 1)
		for i := 0; i < n; i++ {
			if done&(1<<i) == 0 && ops[i].Return < minRet {
				minRet = ops[i].Return
			}
		}

		ok := false
		for i := 0; i < n && !ok; i++ {
			if done&(1<<i) != 0 {
				continue
			}
			op := ops[i]
			if op.Invoke > minRet {
				continue // strictly after another remaining op
			}
			if op.Object < 0 || op.Object >= objects {
				continue
			}
			cur := contents[op.Object]
			if op.Old != cur {
				continue // the old value is truthful under Φ and Φ′ alike
			}

			// Try the strict step.
			if cur == op.Exp {
				contents[op.Object] = op.New
				if dfs(done | 1<<i) {
					ok = true
				}
				contents[op.Object] = cur
				if ok {
					break
				}
				// A silent/other relaxation is not admitted here:
				// only the overriding Φ′ is part of this model.
				continue
			}

			// Mismatch: strict Φ is a no-op...
			if dfs(done | 1<<i) {
				ok = true
				break
			}
			// ...or an overriding fault wrote anyway, if the budget
			// allows and the write changes the content.
			if op.New != cur && admits(faults, op.Object, budget) {
				faults[op.Object]++
				contents[op.Object] = op.New
				if dfs(done | 1<<i) {
					ok = true
				}
				contents[op.Object] = cur
				faults[op.Object]--
			}
		}
		memo[key] = ok
		return ok
	}
	return dfs(0)
}

// admits reports whether one more fault on the object stays within budget.
func admits(faults []int, object int, b Budget) bool {
	if faults[object] == 0 {
		// Would this object join the faulty set?
		inUse := 0
		for _, f := range faults {
			if f > 0 {
				inUse++
			}
		}
		if inUse >= b.F {
			return false
		}
	}
	if b.T >= 0 && faults[object] >= b.T {
		return false
	}
	return true
}

// Unbounded is the per-object fault count for T = ∞.
const Unbounded = -1

// Package atomicx is the real-hardware substrate: a bank of CAS objects
// backed by sync/atomic words, with overriding-fault injection, runnable by
// ordinary goroutines. It implements core.Env, the environment the protocols
// in internal/core run against, so they run unchanged on real atomics — this
// is what the benchmarks and the runnable examples use.
//
// Fault injection on real atomics exploits a pleasant identity: the
// overriding fault of Section 3.3 — "the new value is written even if the
// register content differs from the expected value, and the correct old
// value is returned" — is exactly an unconditional atomic exchange. A
// faulty CAS execution is therefore a single atomic.Swap, preserving both
// atomicity and the relaxed postcondition Φ′ bit-for-bit.
package atomicx

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/seeded"
	"repro/internal/word"
)

// Bank is a set of atomic CAS registers shared by any number of goroutines.
type Bank struct {
	words []atomic.Uint64

	mu     sync.Mutex
	rng    *rand.Rand
	rate   float64
	budget *fault.Budget

	faults atomic.Int64
	ops    atomic.Int64
}

// NewBank returns n fault-free atomic CAS objects initialized to ⊥.
func NewBank(n int) *Bank {
	return &Bank{words: make([]atomic.Uint64, n)}
}

// NewFaultyBank returns n atomic CAS objects where each CAS invocation
// independently manifests an overriding fault with probability rate,
// subject to the (f, t) budget. The seed makes fault decisions repeatable
// for a fixed interleaving (the interleaving itself is up to the Go
// scheduler — this is the real-concurrency substrate, not the simulator).
func NewFaultyBank(n int, budget *fault.Budget, rate float64, seed int64) *Bank {
	return &Bank{
		words:  make([]atomic.Uint64, n),
		rng:    seeded.New(seed),
		rate:   rate,
		budget: budget,
	}
}

// Len returns the number of objects.
func (b *Bank) Len() int { return len(b.words) }

// Faults returns the number of overriding faults injected so far.
func (b *Bank) Faults() int64 { return b.faults.Load() }

// Ops returns the number of CAS invocations executed so far.
func (b *Bank) Ops() int64 { return b.ops.Load() }

// Reset restores every register to ⊥ (for benchmark iterations). Not safe
// to call concurrently with CAS.
func (b *Bank) Reset() {
	for i := range b.words {
		b.words[i].Store(uint64(word.Bottom))
	}
}

// shouldFault decides whether this invocation overrides, charging the
// budget under the bank's lock.
func (b *Bank) shouldFault(obj int) bool {
	if b.rng == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng.Float64() >= b.rate {
		return false
	}
	if b.budget != nil {
		if !b.budget.Admits(obj) {
			return false
		}
		b.budget.Charge(obj)
	}
	return true
}

// CAS executes one compare-and-swap on object i and returns the old value.
// The caller's goroutine id is irrelevant (the Env interface's process
// binding is implicit), so Bank itself satisfies core.Env.
func (b *Bank) CAS(i int, exp, new word.Word) word.Word {
	b.ops.Add(1)

	// A faulty execution is an unconditional exchange: the new value is
	// written regardless of the comparison, and the displaced (correct)
	// old value is returned — atomic.Swap is Φ′ in one instruction.
	//
	// The fault decision is made before looking at the register so that
	// a decision + swap pair cannot be "aimed" using information no
	// hardware comparator glitch would have. The budget is charged at
	// decision time even when the override turns out unobservable (the
	// comparison would have succeeded anyway): under real concurrency the
	// register can change between any read and the swap, so observability
	// cannot be pre-checked atomically. Charging early is conservative —
	// the adversary gets at most, never more than, its (f, t) budget —
	// while the faults counter reports only the observable Φ-violations.
	if b.shouldFault(i) {
		old := word.Word(b.words[i].Swap(uint64(new)))
		if old != exp {
			// Observable: a genuine ⟨CAS, Φ′⟩-fault.
			b.faults.Add(1)
		}
		return old
	}

	// Correct CAS returning the old value, built from the stdlib's
	// boolean CompareAndSwap: a failed comparison is linearized at the
	// Load; a successful one at the CompareAndSwap.
	for {
		cur := word.Word(b.words[i].Load())
		if cur != exp {
			return cur
		}
		if b.words[i].CompareAndSwap(uint64(exp), uint64(new)) {
			return exp
		}
	}
}

// Snapshot returns the current register contents (not atomic across
// objects; for reporting only).
func (b *Bank) Snapshot() []word.Word {
	out := make([]word.Word, len(b.words))
	for i := range b.words {
		out[i] = word.Word(b.words[i].Load())
	}
	return out
}

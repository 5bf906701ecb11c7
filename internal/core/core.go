// Package core implements the paper's contribution: wait-free consensus
// protocols built from compare-and-swap objects that may manifest the
// overriding functional fault (Sections 2–4 of the paper).
//
// Four constructions are provided:
//
//   - SingleCAS: the classic single-object protocol of Herlihy, which the
//     paper shows (Figure 1 / Theorem 4) is (f, ∞, 2)-tolerant — for two
//     processes a single possibly-faulty CAS object suffices.
//   - FPlusOne: Figure 2 / Theorem 5 — an f-tolerant consensus for any
//     number of processes using f+1 CAS objects.
//   - Staged: Figure 3 / Theorem 6 — an (f, t, f+1)-tolerant consensus
//     using only f CAS objects, all of which may be faulty.
//   - SilentRetry: the Section 3.4 retry protocol tolerating a bounded
//     number of silent faults on a single object.
//
// Protocols are written against the minimal Env interface so the same code
// runs on the deterministic simulator (internal/object) and on real atomics
// (internal/atomicx).
//
// On top of the protocols, the package realizes Herlihy's universality
// theorem (the reason the paper studies consensus): Log is a consensus-
// ordered command log, Universal the wait-free universal construction
// (announce + helping), and Counter / KVStore are deterministic state
// machines replayed over the decided prefix — wait-free fault-tolerant
// objects built from faulty CAS.
package core

import (
	"fmt"

	"repro/internal/word"
)

// Env is the shared-memory environment a protocol instance runs against: a
// bank of CAS objects indexed 0..Len()-1, bound to the calling process. CAS
// executes one atomic compare-and-swap on object i and returns the old
// content (which is correct even under the overriding fault, Section 3.3).
// There is deliberately no read operation: the paper's CAS objects allow
// only CAS (Section 3.3).
//
// Per-step fault-observation contract. One Env.CAS invocation IS one
// shared-memory step — the unit both the paper's step bounds and the
// simulator's schedulers count. Every implementation must observe faults
// inside that single invocation:
//
//   - The fault decision (does this invocation deviate from Φ, and which
//     Φ′ it takes), the (f, t) budget accounting, and any trace event for
//     the step all happen atomically WITHIN the CAS call, before it
//     returns. Nothing about a step leaks out of its invocation: after CAS
//     returns, the budget is charged, the event is recorded, and the
//     register holds the step's final content.
//   - No functional fault fires BETWEEN invocations. A register changes
//     only while some process's CAS is in flight (data faults — see
//     object.CAS.Corrupt — are deliberately outside this contract: they
//     model an adversary writing between steps and are driven by
//     experiment code, never by an Env).
//   - Both execution forms rely on this: the goroutine-gated reference
//     simulator parks a process around each CAS, and the compiled stepped
//     runner grants exactly one CAS per Stepper.Step. Either way the fault
//     pipeline of object.CAS.Apply (or the swap path of atomicx.Bank.CAS)
//     runs inside the granted step, so the two forms observe identical
//     faults at identical points.
//
// Audit of the two banks: internal/object charges ops and the budget inside
// CAS.Apply, which both the reference's refsim.Array (goroutine path) and
// the stepped env call within the granted step — compliant. internal/atomicx decides the fault
// and charges the budget under the bank's lock inside Bank.CAS before the
// swap; the charge is conservative (decision-time, even when the override
// turns out unobservable) but still strictly within the invocation —
// compliant.
type Env interface {
	CAS(i int, exp, new word.Word) word.Word
	Len() int
}

// Protocol is a consensus implementation from CAS objects. Implementations
// carry their fault-tolerance parameters and expose the resource and step
// bounds the paper proves.
type Protocol interface {
	// Name identifies the protocol in tables and traces.
	Name() string
	// Objects returns the number of CAS objects the protocol requires.
	Objects() int
	// MaxProcs returns the largest number of processes for which the
	// protocol is fault-tolerant per its theorem (0 means unbounded).
	// Running more processes is allowed — that is exactly how the
	// impossibility experiments exercise the lower bounds.
	MaxProcs() int
	// StepBound returns an upper bound on the shared-memory steps one
	// process takes when n processes participate (wait-freedom witness).
	StepBound(n int) int
	// Decide runs the protocol for the calling process with the given
	// input value (0..word.MaxValue) and returns the decided value.
	Decide(env Env, input int64) int64
}

// ValidateInput panics if the input value cannot be represented in a
// register word. Protocol inputs are caller-controlled, so this is the API
// boundary check.
func ValidateInput(input int64) {
	if input < 0 || input > word.MaxValue {
		panic(fmt.Sprintf("core: input %d out of range [0, %d]", input, word.MaxValue))
	}
}

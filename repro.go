// Package repro is a from-scratch Go reproduction of "Functional Faults"
// (Gali Sheffi and Erez Petrank, SPAA 2020): a formal model of structured
// operation-level faults, consensus constructions from compare-and-swap
// objects that manifest the overriding fault, and empirical verification of
// the paper's matching impossibility results.
//
// The library lives under internal/:
//
//   - internal/word     — the 64-bit CAS register word (⊥ / value / ⟨value, stage⟩)
//   - internal/spec     — Hoare-triple specifications Ψ{O}Φ, relaxed Φ′, fault classification
//   - internal/fault    — fault kinds, (f, t, n) budgets, fault policies
//   - internal/sim      — deterministic shared-memory simulator (Section 2's model)
//   - internal/refsim   — test-only reference: Decide on goroutine-gated processes
//   - internal/object   — the CAS-only shared object with fault injection
//   - internal/core     — the paper's protocols (Figures 1–3), silent-retry, replicated log
//   - internal/run      — settings, protocol↔simulator wiring and the consensus verdict
//   - internal/explore  — exhaustive model checker and randomized stress
//   - internal/adversary— Theorem 18/19 adversaries and the data-fault comparator
//   - internal/hierarchy— consensus-number estimation (Section 5.2)
//   - internal/valency  — valence, decision steps, critical states (Section 5's machinery)
//   - internal/atomicx  — sync/atomic substrate with overriding-fault injection
//   - internal/history  — test-only linearizability checker for the atomics substrate
//   - internal/stats    — summary statistics for the harness
//   - internal/harness  — reproduction experiments E1–E10 and table rendering
//
// Executables: cmd/faultsim, cmd/modelcheck, cmd/hierarchy, cmd/valency,
// cmd/experiments. Runnable examples: examples/quickstart,
// examples/replicatedlog, examples/faultsweep, examples/energysim,
// examples/impossibility, examples/kvstore.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced result.
package repro

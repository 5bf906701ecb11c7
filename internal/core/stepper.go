package core

import "repro/internal/word"

// This file is the compiled execution form of the protocols: each Decide
// loop is lowered to an explicitly resumable state machine (a Stepper) that
// a driver advances one shared-memory step at a time on its own goroutine.
// Every driver outside tests runs this form. Decide on the goroutine-gated
// reference simulator (internal/refsim, test code only) remains the
// reference semantics: a Stepper must be step-for-step equivalent to its
// protocol's Decide (same CAS arguments in the same order, same decision),
// which the explore package's differential test
// (TestCompiledMatchesInterpreted) and FuzzCompiledVsInterpreted enforce.
//
// The Stepper contract mirrors the simulator's step model exactly:
//
//   - Begin performs no shared-memory operation. It validates the input and
//     returns the machine's initial State (pure local computation).
//   - Each Step call performs EXACTLY ONE env.CAS invocation — the one
//     atomic step the scheduler granted — plus local computation, and then
//     returns. A Step must not loop over CAS calls: retry loops in the
//     pseudocode become repeated Step calls with the loop position carried
//     in State.
//   - A Step that returns done=true has performed its final CAS in the same
//     call (the paper's protocols decide from the value that CAS returned;
//     the decision is local computation after the step).
//   - Between two Step calls of one process, other processes may take
//     arbitrarily many steps and faults may fire: a Stepper may assume
//     NOTHING about shared state across Step boundaries beyond what its own
//     CAS return values told it. Everything it needs must live in State.
//
// State deliberately holds the union of every machine's registers rather
// than per-protocol types: drivers replay millions of executions and store
// one State per process, so a single flat struct keeps the hot path free of
// interface boxing and per-protocol allocation.

// State is the resumable register file of one protocol instance: the
// program counter plus the handful of locals the four constructions need.
// A State is created by Stepper.Begin and mutated in place by Stepper.Step;
// it is meaningful only to the Stepper that created it.
type State struct {
	// PC is the program counter: which switch arm Step resumes in.
	PC int
	// I is the object index register (Figures 2 and 3's loop variable i).
	I int
	// S is the stage register (Figure 3's s).
	S int64
	// Out is the current decision estimate (Figures 2 and 3's output).
	Out int64
	// Exp is the expected-content register (Figure 3's exp).
	Exp word.Word
	// Val is the packed input value (Figures 1 and 2's val).
	Val word.Word
}

// Stepper is the compiled form of a Protocol: a state machine whose Step
// performs exactly one shared-memory CAS per call. See the contract above.
type Stepper interface {
	// Begin validates the input and returns the initial machine state.
	// It performs no shared-memory operation.
	Begin(input int64) State
	// Step advances the machine by one atomic step against env. It returns
	// done=true with the decided value once the process has decided; the
	// machine must not be stepped further after that.
	Step(st *State, env Env) (done bool, decided int64)
	// Pending reports the CAS the next Step call will issue from st — the
	// object index and the exp/new arguments — without performing it. It is
	// a pure function of st: the exploration engine uses it to compute the
	// independence relation for partial-order reduction, so it must return
	// exactly the arguments the next Step passes to env.CAS.
	Pending(st *State) (obj int, exp, new word.Word)
}

// Steppable is implemented by protocols that provide a compiled form.
type Steppable interface {
	Compile() Stepper
}

// Compile returns the compiled form of the protocol, or ok=false when the
// protocol provides none (drivers that need one refuse it).
func Compile(p Protocol) (Stepper, bool) {
	s, ok := p.(Steppable)
	if !ok {
		return nil, false
	}
	return s.Compile(), true
}

// singleStepper is the Figure 1 machine: a single CAS decides.
type singleStepper struct{}

// Compile implements Steppable.
func (SingleCAS) Compile() Stepper { return singleStepper{} }

// Begin implements Stepper.
func (singleStepper) Begin(input int64) State {
	ValidateInput(input)
	return State{Out: input, Val: word.FromValue(input)}
}

// Step implements Stepper: the one CAS of Figure 1, deciding on its result.
func (singleStepper) Step(st *State, env Env) (bool, int64) {
	old := env.CAS(0, word.Bottom, st.Val)
	if !old.IsBottom() {
		return true, old.Value()
	}
	return true, st.Out
}

// Pending implements Stepper: Figure 1's only CAS.
func (singleStepper) Pending(st *State) (int, word.Word, word.Word) {
	return 0, word.Bottom, st.Val
}

// fPlusOneStepper is the Figure 2 machine: one CAS per object in order,
// adopting any non-⊥ content seen; the pass over object f decides.
type fPlusOneStepper struct {
	f int
}

// Compile implements Steppable.
func (p FPlusOne) Compile() Stepper { return fPlusOneStepper{f: p.F} }

// Begin implements Stepper. Val carries the running output word (Figure 2's
// output), I the object index.
func (fPlusOneStepper) Begin(input int64) State {
	ValidateInput(input)
	return State{Val: word.FromValue(input)}
}

// Step implements Stepper: one iteration of Figure 2's loop body.
func (m fPlusOneStepper) Step(st *State, env Env) (bool, int64) {
	old := env.CAS(st.I, word.Bottom, st.Val)
	if !old.IsBottom() {
		st.Val = old
	}
	st.I++
	if st.I > m.f {
		return true, st.Val.Value()
	}
	return false, 0
}

// Pending implements Stepper: the next pass's CAS on object I.
func (fPlusOneStepper) Pending(st *State) (int, word.Word, word.Word) {
	return st.I, word.Bottom, st.Val
}

// silentStepper is the Section 3.4 retry machine: CAS(O, ⊥, val) until a
// non-⊥ old value appears.
type silentStepper struct{}

// Compile implements Steppable.
func (SilentRetry) Compile() Stepper { return silentStepper{} }

// Begin implements Stepper.
func (silentStepper) Begin(input int64) State {
	ValidateInput(input)
	return State{Val: word.FromValue(input)}
}

// Step implements Stepper: one retry of the Section 3.4 loop.
func (silentStepper) Step(st *State, env Env) (bool, int64) {
	old := env.CAS(0, word.Bottom, st.Val)
	if !old.IsBottom() {
		return true, old.Value()
	}
	return false, 0
}

// Pending implements Stepper: every retry issues the same CAS.
func (silentStepper) Pending(st *State) (int, word.Word, word.Word) {
	return 0, word.Bottom, st.Val
}

// stagedStepper is the Figure 3 machine. Its two program counters cover the
// protocol's two CAS sites: pcStage is line 6 (the per-object install loop
// inside the stage loop), pcFinal is line 20 (the final-stage install on
// O_0). All the control flow between two CAS invocations — retry versus
// adopt versus advance (lines 7–16), the end-of-stage bookkeeping (lines
// 17–18), and the stage-loop exit into the final stage (line 19) — is local
// computation and therefore folded into the Step that performed the
// preceding CAS.
type stagedStepper struct {
	f        int
	maxStage int64
}

const (
	pcStage = 0 // Figure 3 line 6: CAS(O_i, exp, ⟨output, s⟩)
	pcFinal = 1 // Figure 3 line 20: CAS(O_0, exp, ⟨output, maxStage⟩)
)

// Compile implements Steppable.
func (p Staged) Compile() Stepper { return stagedStepper{f: p.F, maxStage: p.MaxStage()} }

// Begin implements Stepper, encoding Figure 3 line 2: output ← val,
// exp ← ⊥, s ← 0, starting at the first object of the first stage.
func (stagedStepper) Begin(input int64) State {
	ValidateInput(input)
	return State{PC: pcStage, Out: input, Exp: word.Bottom}
}

// Step implements Stepper. Line numbers refer to Figure 3 of the paper; the
// transcription mirrors Staged.Decide branch for branch so the two forms
// issue identical CAS sequences.
func (m stagedStepper) Step(st *State, env Env) (bool, int64) {
	if st.PC == pcFinal {
		old := env.CAS(0, st.Exp, word.Pack(st.Out, m.maxStage)) // line 20
		if old != st.Exp && old.Stage() < m.maxStage {           // line 21
			st.Exp = old // line 22
			return false, 0
		}
		return true, st.Out // lines 23–24
	}

	old := env.CAS(st.I, st.Exp, word.Pack(st.Out, st.S)) // line 6
	if old != st.Exp {                                    // line 7
		if old.Stage() < st.S { // line 8 (negated)
			st.Exp = old // line 15: still needs to update O_i
			return false, 0
		}
		st.Out = old.Value() // line 9
		st.S = old.Stage()   // line 10
		if st.S == m.maxStage {
			return true, st.Out // lines 11–12
		}
		// line 13: exp ← ⟨old.val, old.stage − 1⟩; stage −1 is ⊥.
		if old.Stage() == 0 {
			st.Exp = word.Bottom
		} else {
			st.Exp = word.Pack(old.Value(), old.Stage()-1)
		}
		// line 14: no need to update O_i — fall through to the next object.
	}
	// Line 16 (successful CAS) joins here: advance to the next object, and
	// at the end of the pass run the end-of-stage bookkeeping.
	st.I++
	if st.I < m.f {
		return false, 0
	}
	st.I = 0
	// line 17: exp.stage ← s (⊥ has no value field; the process's own
	// output is the value it just installed — see the encoding note in
	// staged.go).
	if st.Exp.IsBottom() {
		st.Exp = word.Pack(st.Out, st.S)
	} else {
		st.Exp = st.Exp.WithStage(st.S)
	}
	st.S++                  // line 18
	if st.S >= m.maxStage { // line 3 (loop exit)
		st.PC = pcFinal
	}
	return false, 0
}

// Pending implements Stepper: line 20's final install or line 6's
// per-object install, depending on the program counter.
func (m stagedStepper) Pending(st *State) (int, word.Word, word.Word) {
	if st.PC == pcFinal {
		return 0, st.Exp, word.Pack(st.Out, m.maxStage)
	}
	return st.I, st.Exp, word.Pack(st.Out, st.S)
}

package valency

import (
	"testing"

	"repro/internal/fault"
)

func TestSoloValenceFollowsStateValency(t *testing.T) {
	cfg := cfgSingle(2, 0)
	// After p0's step the state is 10-valent; p1's solo run decides 10.
	v, err := SoloValence(cfg, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 10 {
		t.Fatalf("p1 solo from 10-valent state: %s", v)
	}
	// Symmetric case.
	v, err = SoloValence(cfg, []int{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 11 {
		t.Fatalf("p0 solo from 11-valent state: %s", v)
	}
}

func TestSoloValenceFromInitialState(t *testing.T) {
	// A solo run of p0 from the initial state decides p0's input.
	v, err := SoloValence(cfgSingle(2, 0), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 10 {
		t.Fatalf("p0 solo from start: %s", v)
	}
}

func TestSoloValenceValidation(t *testing.T) {
	if _, err := SoloValence(cfgSingle(2, 0), nil, 5); err == nil {
		t.Fatal("out-of-range process must error")
	}
}

func TestIndistinguishabilityDistinguishesDecidedStates(t *testing.T) {
	cfg := cfgSingle(2, 0)
	// States after p0's step vs after p1's step ARE distinguishable to
	// either process (the register content differs and CAS exposes it).
	same, err := IndistinguishableTo(cfg, []int{0}, []int{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Fatal("states with different winners must be distinguishable")
	}
}

func TestTheorem18ContradictionExhibited(t *testing.T) {
	// The closing move of the Theorem 18 proof, computed: in the reduced
	// model (3 processes, unbounded overriding faults on the single
	// object) take the two successor states of the initial state in
	// which p0 and then p1 CAS first — call them s1 and s2′ after p1's
	// overriding CAS lands on top in both orders. The proof's point:
	// there are pairs of states with different valencies that a third
	// process cannot distinguish, so its solo run decides the same value
	// in both — contradicting consensus.
	cfg := cfgSingle(3, fault.Unbounded)

	// Prefix [0, ...]: p0 CASes first (succeeds, register 10), then p1
	// CASes with an overriding fault (register 11).
	// Prefix [1, ...]: p1 CASes first (succeeds, register 11) — wait,
	// scheduling choice 1 picks p1. Then p0 CASes and overrides
	// (register 10)... the proof wants both orders ending with the SAME
	// final content so p2 cannot tell. Choose the interleavings ending
	// with register = 11:
	//   A: p0 steps (10), p1 steps + fault (11)
	//   B: p1 steps (11), p0's step fails (register stays 11, no fault)
	// In A the history contains p0's value; in B it does not. p2's solo
	// run must nevertheless decide the same value in both.
	prefixA := []int{0, 0, 1} // schedule p0; schedule p1; p1's CAS faults
	prefixB := []int{1, 0, 0} // schedule p1; schedule p0; p0's CAS does not fault

	same, err := IndistinguishableTo(cfg, prefixA, prefixB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		a, _ := SoloValence(cfg, prefixA, 2)
		b, _ := SoloValence(cfg, prefixB, 2)
		t.Fatalf("p2 distinguishes the two states: %s vs %s", a, b)
	}

	// And the contradiction: in execution B nobody ever proposed-and-won
	// with p0's value, while in A both p0 and p1 decide 10 in some
	// extensions — yet p2's solo decision is identical. Verify A indeed
	// reaches violations (p2 decides 11 while p0 decided 10).
	vA, err := Compute(cfg, prefixA)
	if err != nil {
		t.Fatal(err)
	}
	if !vA.Violated {
		t.Fatalf("state A must have violating extensions: %s", vA)
	}
}

func TestSoloValenceUnderFaultsEnumeratesFaultChoices(t *testing.T) {
	// Solo extensions still branch on fault decisions: with unbounded
	// overriding faults on the object, p1's solo run from the state
	// where p0 won explores both the faulty and non-faulty branch —
	// but decides 10 either way (Theorem 4's truthful-old argument).
	v, err := SoloValence(cfgSingle(2, fault.Unbounded), []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Executions < 2 {
		t.Fatalf("expected ≥2 solo extensions (fault branch), got %d", v.Executions)
	}
	if !v.Univalent() || v.Values[0] != 10 {
		t.Fatalf("p1 solo: %s", v)
	}
}

func TestSoloValenceStaged(t *testing.T) {
	v, err := SoloValence(staged11(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 11 {
		t.Fatalf("p1 solo from start: %s", v)
	}
}

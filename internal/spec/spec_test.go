package spec

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

var (
	bot = word.Bottom
	w1  = word.FromValue(1)
	w2  = word.FromValue(2)
	w3  = word.FromValue(3)
)

func TestCASSpecHolds(t *testing.T) {
	cases := []struct {
		name string
		s    State
		want bool
	}{
		{"success", State{Pre: bot, Post: w1, Exp: bot, New: w1, Old: bot}, true},
		{"failure", State{Pre: w1, Post: w1, Exp: bot, New: w2, Old: w1}, true},
		{"override", State{Pre: w1, Post: w2, Exp: bot, New: w2, Old: w1}, false},
		{"silent", State{Pre: bot, Post: bot, Exp: bot, New: w1, Old: bot}, false},
		{"bad old", State{Pre: bot, Post: w1, Exp: bot, New: w1, Old: w1}, false},
	}
	for _, c := range cases {
		if got := CASSpec.Holds(c.s); got != c.want {
			t.Errorf("%s: CASSpec = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOverridingSpecIsWeakerThanCASOnSuccess(t *testing.T) {
	// Property: every state satisfying Φ with a successful comparison
	// also satisfies the overriding Φ′ (the fault only relaxes the
	// failing branch). This is what makes the fault "one-sided".
	prop := func(preV, newV uint16) bool {
		pre := word.FromValue(int64(preV))
		nw := word.FromValue(int64(newV))
		s := State{Pre: pre, Post: nw, Exp: pre, New: nw, Old: pre}
		return CASSpec.Holds(s) && OverridingSpec.Holds(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyCorrect(t *testing.T) {
	if got := Classify(State{Pre: bot, Post: w1, Exp: bot, New: w1, Old: bot}); got != fault.None {
		t.Errorf("success classified as %v", got)
	}
	if got := Classify(State{Pre: w1, Post: w1, Exp: w2, New: w3, Old: w1}); got != fault.None {
		t.Errorf("failure classified as %v", got)
	}
}

func TestClassifyOverriding(t *testing.T) {
	s := State{Pre: w1, Post: w2, Exp: bot, New: w2, Old: w1}
	if got := Classify(s); got != fault.Overriding {
		t.Errorf("classified as %v, want overriding", got)
	}
}

func TestClassifySilent(t *testing.T) {
	s := State{Pre: bot, Post: bot, Exp: bot, New: w1, Old: bot}
	if got := Classify(s); got != fault.Silent {
		t.Errorf("classified as %v, want silent", got)
	}
}

func TestClassifyInvisible(t *testing.T) {
	// Write behaviour per spec, old corrupted.
	s := State{Pre: w1, Post: w1, Exp: w2, New: w3, Old: w2}
	if got := Classify(s); got != fault.Invisible {
		t.Errorf("classified as %v, want invisible", got)
	}
}

func TestClassifyArbitrary(t *testing.T) {
	// A value unrelated to the operation was written; old correct.
	s := State{Pre: w1, Post: w3, Exp: bot, New: w2, Old: w1}
	if got := Classify(s); got != fault.Arbitrary {
		t.Errorf("classified as %v, want arbitrary", got)
	}
	// Both old and content corrupted.
	s = State{Pre: w1, Post: w3, Exp: bot, New: w2, Old: w2}
	if got := Classify(s); got != fault.Arbitrary {
		t.Errorf("double corruption classified as %v, want arbitrary", got)
	}
}

func TestClassifyMatchesInjectorEndToEnd(t *testing.T) {
	// Run real protocol executions with each injectable fault kind and
	// verify the auditor's classification agrees with the injector's
	// label on every single event — the meta-soundness check tying
	// Definition 1 to the implementation.
	kinds := []fault.Kind{fault.Overriding, fault.Silent, fault.Invisible, fault.Arbitrary}
	for _, k := range kinds {
		policy := fault.Policy(fault.Always(k))
		if k == fault.Arbitrary {
			policy = fault.PolicyFunc(func(op fault.Op) fault.Proposal {
				return fault.Proposal{Kind: fault.Arbitrary, Write: w3}
			})
		}
		res, err := run.ConsensusContext(context.Background(), &run.Settings{
			Protocol:  core.NewFPlusOne(1),
			Inputs:    []int64{10, 11, 12},
			Scheduler: sim.NewRandom(5),
			Budget:    fault.NewFixedBudget([]int{0}, 2),
			Policy:    policy,
			Trace:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		audit := AuditTrace(res.Sim.Log)
		if len(audit.Mismatches) != 0 {
			t.Errorf("kind %v: %d classification mismatches, e.g. %s",
				k, len(audit.Mismatches), audit.Mismatches[0])
		}
		if audit.Total == 0 {
			t.Errorf("kind %v: no CAS events audited", k)
		}
	}
}

func TestAuditFaultyObjectsAndTolerable(t *testing.T) {
	log := trace.New()
	// Two faults on object 0, one on object 2.
	mk := func(obj int, kind fault.Kind) trace.Event {
		return trace.Event{
			Kind: trace.EventCAS, Object: obj,
			Pre: w1, Post: w2, Exp: bot, New: w2, Old: w1,
			Fault: kind,
		}
	}
	log.Append(mk(0, fault.Overriding))
	log.Append(mk(0, fault.Overriding))
	log.Append(mk(2, fault.Overriding))
	// And one correct CAS.
	log.Append(trace.Event{Kind: trace.EventCAS, Object: 1, Pre: bot, Post: w1, Exp: bot, New: w1, Old: bot})

	a := AuditTrace(log)
	if a.Total != 4 {
		t.Errorf("Total = %d, want 4", a.Total)
	}
	if len(a.FaultyObjects()) != 2 {
		t.Errorf("faulty objects = %v, want 2 of them", a.FaultyObjects())
	}
	if a.ObjectFaults(0) != 2 || a.ObjectFaults(2) != 1 || a.ObjectFaults(1) != 0 {
		t.Errorf("per-object faults wrong: %v", a.Faults)
	}
	if !a.Tolerable(2, 2) {
		t.Error("(2,2) must tolerate this execution")
	}
	if a.Tolerable(1, 2) {
		t.Error("(1,2) must reject: two faulty objects")
	}
	if a.Tolerable(2, 1) {
		t.Error("(2,1) must reject: object 0 has two faults")
	}
	if !a.Tolerable(2, fault.Unbounded) {
		t.Error("(2,∞) must tolerate")
	}
	if a.String() == "" {
		t.Error("empty audit string")
	}
}

func TestAuditDetectsMislabeledEvent(t *testing.T) {
	log := trace.New()
	// An event labeled None whose state shows an override.
	log.Append(trace.Event{
		Kind: trace.EventCAS, Object: 0,
		Pre: w1, Post: w2, Exp: bot, New: w2, Old: w1,
		Fault: fault.None,
	})
	a := AuditTrace(log)
	if len(a.Mismatches) != 1 {
		t.Errorf("mismatches = %d, want 1", len(a.Mismatches))
	}
}

func TestAuditIgnoresNonCASEvents(t *testing.T) {
	log := trace.New()
	log.Append(trace.Event{Kind: trace.EventDecide, Proc: 0, Value: w1})
	log.Append(trace.Event{Kind: trace.EventHalt, Proc: 1})
	a := AuditTrace(log)
	if a.Total != 0 {
		t.Errorf("Total = %d, want 0", a.Total)
	}
}

func TestStateOf(t *testing.T) {
	e := trace.Event{Kind: trace.EventCAS, Pre: w1, Post: w2, Exp: bot, New: w2, Old: w1}
	s := StateOf(e)
	if s.Pre != w1 || s.Post != w2 || s.Exp != bot || s.New != w2 || s.Old != w1 {
		t.Errorf("StateOf = %+v", s)
	}
}

func TestTripleNames(t *testing.T) {
	for _, tr := range []Triple{CASSpec, OverridingSpec, SilentSpec, InvisibleSpec, ArbitrarySpec} {
		if tr.Name == "" {
			t.Error("unnamed triple")
		}
	}
}

func TestClassificationIsExclusiveProperty(t *testing.T) {
	// Property: Classify never reports None for a state violating Φ, and
	// never reports a fault for a state satisfying Φ.
	vals := []word.Word{bot, w1, w2, w3}
	for _, pre := range vals {
		for _, post := range vals {
			for _, exp := range vals {
				for _, nw := range vals {
					for _, old := range vals {
						s := State{Pre: pre, Post: post, Exp: exp, New: nw, Old: old}
						got := Classify(s)
						if CASSpec.Holds(s) != (got == fault.None) {
							t.Fatalf("inconsistent classification for %+v: %v", s, got)
						}
					}
				}
			}
		}
	}
}

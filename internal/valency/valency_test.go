package valency

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

// cfgSingle describes the single-CAS protocol with n distinct inputs and,
// when faults is not 0, that many overriding faults on its object.
func cfgSingle(n int, faults int) *run.Settings {
	s := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithDistinctInputs(n))
	if faults != 0 {
		s.FaultyObjects = []int{0}
		s.FaultsPerObject = faults
	}
	return s
}

// staged11 describes Figure 3 at f=1, t=1 with two processes.
func staged11() *run.Settings {
	return run.NewSettings(run.WithProtocol(core.NewStaged(1, 1)), run.WithDistinctInputs(2),
		run.WithFaultyObjects([]int{0}, 1))
}

func TestInitialStateIsMultivalent(t *testing.T) {
	// Validity forces the initial state multivalent with distinct inputs
	// (the observation opening the Theorem 18 proof).
	v, err := Compute(cfgSingle(2, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Multivalent() {
		t.Fatalf("initial state: %s", v)
	}
	if len(v.Values) != 2 || v.Values[0] != 10 || v.Values[1] != 11 {
		t.Fatalf("values = %v, want [10 11]", v.Values)
	}
	if v.Violated {
		t.Error("fault-free executions must not violate")
	}
	if v.Executions != 2 {
		t.Errorf("executions = %d, want 2", v.Executions)
	}
}

func TestFirstStepDecides(t *testing.T) {
	// After p0's CAS, only p0's input remains reachable: the scheduler
	// choice out of the initial state is a decision step.
	v, err := Compute(cfgSingle(2, 0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 10 {
		t.Fatalf("after p0's step: %s", v)
	}
	v, err = Compute(cfgSingle(2, 0), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 11 {
		t.Fatalf("after p1's step: %s", v)
	}
}

func TestEqualInputsAreUnivalentFromTheStart(t *testing.T) {
	cfg := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithInputs(7, 7))
	v, err := Compute(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Univalent() || v.Values[0] != 7 {
		t.Fatalf("equal inputs: %s", v)
	}
}

func TestValenceUnderTheorem4Faults(t *testing.T) {
	// With unbounded overriding faults and two processes (Theorem 4's
	// setting) the system stays correct: the initial state is exactly
	// {10, 11}-valent and no extension violates.
	v, err := Compute(cfgSingle(2, fault.Unbounded), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Violated {
		t.Fatal("Theorem 4 configuration must have no violating extension")
	}
	if len(v.Values) != 2 {
		t.Fatalf("values = %v", v.Values)
	}
}

func TestValenceDetectsTheorem18Violations(t *testing.T) {
	v, err := Compute(cfgSingle(3, fault.Unbounded), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Violated {
		t.Fatal("three processes with unbounded faults must reach violations")
	}
}

func TestFindCriticalSingleCAS(t *testing.T) {
	// The canonical FLP/Herlihy picture: for the single-CAS protocol the
	// initial state itself is critical — every enabled step decides.
	crit, err := FindCritical(cfgSingle(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(crit.Prefix) != 0 {
		t.Fatalf("critical prefix = %v, want the initial state", crit.Prefix)
	}
	if len(crit.Children) != 2 {
		t.Fatalf("critical state has %d children, want one per enabled process", len(crit.Children))
	}
	if !crit.State.Multivalent() {
		t.Fatal("critical state must be multivalent")
	}
	values := map[int64]bool{}
	for _, ch := range crit.Children {
		if !ch.Univalent() {
			t.Fatalf("child not univalent: %s", ch)
		}
		values[ch.Values[0]] = true
	}
	if len(values) < 2 {
		t.Fatalf("decision steps cover %v; a critical state needs ≥2 valencies", values)
	}
}

func TestFindCriticalStaged(t *testing.T) {
	// Figure 3's f=1, t=1 instance also has a critical state; verify the
	// structural invariants hold wherever the walk lands.
	crit, err := FindCritical(staged11())
	if err != nil {
		t.Fatal(err)
	}
	if !crit.State.Multivalent() {
		t.Fatal("critical state must be multivalent")
	}
	if len(crit.Children) < 2 {
		t.Fatalf("critical state has %d children", len(crit.Children))
	}
	seen := map[int64]bool{}
	for _, ch := range crit.Children {
		if !ch.Univalent() {
			t.Fatalf("child not univalent: %s", ch)
		}
		seen[ch.Values[0]] = true
	}
	if len(seen) < 2 {
		t.Fatalf("children valencies %v; want both values represented", seen)
	}
}

func TestFindCriticalRejectsUnivalentStart(t *testing.T) {
	cfg := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithInputs(7, 7))
	if _, err := FindCritical(cfg); err == nil {
		t.Fatal("equal inputs must be rejected (initial state univalent)")
	}
}

func TestValenceString(t *testing.T) {
	v, err := Compute(cfgSingle(2, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() == "" {
		t.Error("empty string")
	}
	u, err := Compute(cfgSingle(2, 0), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if u.String() == "" {
		t.Error("empty string")
	}
}

// TestErrorsNameWhatIsWrong: a prefix that names no state, and a walk for a
// critical state in a configuration that violates consensus, are errors
// that say so, not a panic, a valence of some other state, or a complaint
// about a state deep in the walk.
func TestErrorsNameWhatIsWrong(t *testing.T) {
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"scheduling choice out of range", func() error {
			_, err := Compute(cfgSingle(2, 1), []int{7})
			return err
		}, "prefix [7] names no state"},
		{"negative choice", func() error {
			_, err := Compute(cfgSingle(2, 1), []int{0, -1})
			return err
		}, "prefix [0 -1] names no state"},
		{"fault choice out of range", func() error {
			_, err := Compute(cfgSingle(2, 1), []int{0, 2})
			return err
		}, "prefix [0 2] names no state"},
		{"more choices than the execution makes", func() error {
			_, err := Compute(cfgSingle(2, 1), []int{0, 0, 0, 0})
			return err
		}, "prefix [0 0 0 0] names no state"},
		{"solo extensions of no state", func() error {
			_, err := SoloValence(cfgSingle(2, 1), []int{0, 0, 0, 0}, 1)
			return err
		}, "prefix [0 0 0 0] names no state"},
		{"violations reachable from the initial state", func() error {
			_, err := FindCritical(cfgSingle(3, 1))
			return err
		}, "state [] has violating extensions, first [0 0 1]: VIOLATION(consistency)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

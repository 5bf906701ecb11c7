package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

func TestStressPCTFindsDeepViolation(t *testing.T) {
	// The covering-shaped violation of Theorem 19 at f=2, n=4 needs a
	// solo run, two targeted preemptions with faults, and another solo
	// run — uniform random walks essentially never produce it (E9
	// measures 0 in 4000), but PCT's solo bursts find it reliably.
	cfg := run.Settings{
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(4),
		FaultyObjects:   []int{0, 1},
		FaultsPerObject: 1,
	}
	out, err := stressPCT(&cfg, 3000, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("PCT failed to find the Theorem 19 violation in 3000 runs")
	}
	if out.First == nil || out.First.Trace.Len() == 0 {
		t.Fatal("first counterexample must carry a trace")
	}
	if out.First.Verdict.Violation == "" {
		t.Fatal("counterexample verdict empty")
	}
}

func TestStressPCTCleanOnTolerantConfig(t *testing.T) {
	// Within the budget at n = f+1 PCT must find nothing (Theorem 6).
	cfg := run.Settings{
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1},
		FaultsPerObject: 1,
	}
	out, err := stressPCT(&cfg, 500, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("PCT broke a provably tolerant configuration: %s", out.First)
	}
	if out.TotalFaults == 0 {
		t.Error("PCT stress never injected faults")
	}
}

func TestStressPCTSeedDeterminism(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
	}
	a, err := stressPCT(&cfg, 100, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stressPCT(&cfg, 100, 5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Violations != b.Violations || a.TotalFaults != b.TotalFaults {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestStressPCTValidation(t *testing.T) {
	if _, err := stressPCT(&run.Settings{Inputs: inputs(1)}, 1, 0, 2, 0); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := stressPCT(&run.Settings{Protocol: core.SingleCAS{}}, 1, 0, 2, 0); err == nil {
		t.Error("missing inputs must error")
	}
}

func TestStressPCTSilentKind(t *testing.T) {
	out, err := stressPCT(&run.Settings{
		Protocol:        core.NewSilentRetry(2),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: 2,
		Kind:            fault.Silent,
	}, 200, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("bounded silent faults broke the retry protocol under PCT: %s", out.First)
	}
}

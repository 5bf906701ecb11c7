package explore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

func TestSubsetsEnumeration(t *testing.T) {
	got := Subsets(3, 2)
	want := [][]int{{0, 1}, {0, 2}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("Subsets(3,2) = %v", got)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Subsets(3,2) = %v, want %v", got, want)
			}
		}
	}
	if len(Subsets(4, 0)) != 1 {
		t.Error("one empty subset expected for k=0")
	}
	if Subsets(2, 3) != nil {
		t.Error("k > n must yield nil")
	}
	if Subsets(2, -1) != nil {
		t.Error("negative k must yield nil")
	}
	if len(Subsets(5, 5)) != 1 {
		t.Error("k = n must yield the full set only")
	}
}

func TestSubsetsCounts(t *testing.T) {
	// C(6,3) = 20.
	if got := len(Subsets(6, 3)); got != 20 {
		t.Errorf("C(6,3) = %d, want 20", got)
	}
}

func TestCheckAllSubsetsTheorem5(t *testing.T) {
	// Theorem 5 with the faulty set fully quantified: EVERY choice of 1
	// faulty object among Figure 2's 2 objects verifies exhaustively.
	out, err := (&Engine{}).CheckAllSubsets(context.Background(), &run.Settings{
		Protocol:        core.NewFPlusOne(1),
		Inputs:          inputs(2),
		FaultsPerObject: fault.Unbounded,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}
}

func TestCheckAllSubsetsFindsViolation(t *testing.T) {
	// Both objects faulty (f = objects): Theorem 18 territory at n=3.
	out, err := (&Engine{}).CheckAllSubsets(context.Background(), &run.Settings{
		Protocol:        core.NewFPlusOne(1),
		Inputs:          inputs(3),
		FaultsPerObject: fault.Unbounded,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("all-faulty subset must produce a violation")
	}
}

func TestCheckAllSubsetsValidation(t *testing.T) {
	if _, err := (&Engine{}).CheckAllSubsets(context.Background(), &run.Settings{}, 1); err == nil {
		t.Error("missing protocol must error")
	}
	if _, err := (&Engine{}).CheckAllSubsets(context.Background(), &run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(2)}, 5); err == nil {
		t.Error("oversized subset must error")
	}
}

func TestFindMinimalCounterexample(t *testing.T) {
	best, out, err := findMinimal(&run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatal("expected a violation")
	}
	if !out.Complete {
		t.Fatal("tiny tree must enumerate completely")
	}
	// The minimal Theorem 18 counterexample is the 3-step sequential
	// run: p0 wins, p1 overrides, p2 overrides.
	if len(best.Schedule) != 3 {
		t.Fatalf("minimal schedule length %d, want 3:\n%s", len(best.Schedule), best)
	}
	if best.Verdict.Violation != run.ViolationConsistency {
		t.Errorf("violation = %s", best.Verdict.Violation)
	}
}

func TestFindMinimalOnCleanConfig(t *testing.T) {
	best, out, err := findMinimal(&run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best != nil {
		t.Fatalf("clean config produced %s", best)
	}
	if !out.Complete {
		t.Fatal("must complete")
	}
}

func TestFindMinimalValidation(t *testing.T) {
	if _, _, err := findMinimal(&run.Settings{Inputs: inputs(1)}); err == nil {
		t.Error("missing protocol must error")
	}
	if _, _, err := findMinimal(&run.Settings{Protocol: core.SingleCAS{}}); err == nil {
		t.Error("missing inputs must error")
	}
	if _, _, err := findMinimal(&run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(1), Kind: fault.Arbitrary}); err == nil {
		t.Error("unsupported kind must error")
	}
}

package valency_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/valency"
)

// The FLP/Herlihy picture for the single-CAS protocol: the initial state is
// multivalent and critical — each process's first step is a decision step.
func ExampleFindCritical() {
	cfg := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithInputs(10, 11))
	crit, err := valency.FindCritical(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("critical at depth", len(crit.Prefix))
	for c, child := range crit.Children {
		fmt.Printf("step %d → %v\n", c, child.Values)
	}
	// Output:
	// critical at depth 0
	// step 0 → [10]
	// step 1 → [11]
}

// Valence of the state after p0's first CAS: only p0's input remains.
func ExampleCompute() {
	cfg := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithInputs(10, 11))
	v, err := valency.Compute(cfg, []int{0})
	if err != nil {
		panic(err)
	}
	fmt.Println(v.Univalent(), v.Values)
	// Output: true [10]
}

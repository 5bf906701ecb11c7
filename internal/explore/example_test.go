package explore_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/run"
)

// Exhaustively verify Theorem 6's smallest instance: Figure 3 with one
// object, one tolerated fault, two processes — every schedule, every fault
// placement.
func ExampleCheckWith() {
	out, err := explore.CheckWith(context.Background(),
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithInputs(10, 11),
		run.WithFaultyObjects([]int{0}, 1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Complete, out.OK(), out.Executions)
	// Output: true true 4356
}

// The same protocol with one process too many: the checker exhibits the
// violation Theorem 19 predicts.
func ExampleCheckWith_impossibility() {
	out, err := explore.CheckWith(context.Background(),
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithInputs(10, 11, 12),
		run.WithFaultyObjects([]int{0}, 1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.OK(), out.Violation.Verdict.Violation)
	// Output: false consistency
}

// Seeded randomized stress for configurations whose trees are too large to
// enumerate.
func ExampleStressWith() {
	out, err := explore.StressWith(100, 7,
		run.WithProtocol(core.NewStaged(2, 1)),
		run.WithInputs(10, 11, 12),
		run.WithFaultyObjects([]int{0, 1}, 1),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Runs, out.Violations)
	// Output: 100 0
}

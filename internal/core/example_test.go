package core_test

import (
	"fmt"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
)

// The f-tolerant construction of Figure 2 on the deterministic simulator:
// three processes, one faulty object overriding on every opportunity.
func ExampleFPlusOne() {
	res, err := run.ConsensusWith(
		run.WithProtocol(core.NewFPlusOne(1)),
		run.WithInputs(10, 11, 12),
		run.WithScheduler(sim.NewRoundRobin()),
		run.WithFaultyObjects([]int{0}, fault.Unbounded),
		run.WithPolicy(fault.WhenEffective(fault.Always(fault.Overriding))),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict)
	// Output: OK [p0=10 p1=10 p2=10]
}

// The staged construction of Figure 3 runs unchanged on real atomics.
func ExampleStaged() {
	proto := core.NewStaged(1, 1)
	bank := atomicx.NewBank(proto.Objects())
	fmt.Println(proto.Decide(bank, 42))
	fmt.Println(proto.MaxStage())
	// Output:
	// 42
	// 5
}

// A consensus-ordered log: commands from one appender land in submission
// order.
func ExampleLog() {
	proto := core.SingleCAS{}
	log := core.NewLog(proto, func() core.Env {
		return atomicx.NewBank(proto.Objects())
	})
	log.Append(core.EncodeCmd(0, 7))
	log.Append(core.EncodeCmd(0, 8))
	for i := 0; i < log.Len(); i++ {
		cmd, _ := log.Get(i)
		_, payload := core.DecodeCmd(cmd)
		fmt.Println(i, payload)
	}
	// Output:
	// 0 7
	// 1 8
}

// Two-process consensus survives even a CAS object that ALWAYS overrides —
// Theorem 4 in four lines.
func ExampleSingleCAS() {
	res, err := run.ConsensusWith(
		run.WithProtocol(core.SingleCAS{}),
		run.WithInputs(1, 2),
		run.WithScheduler(sim.NewRoundRobin()),
		run.WithBudget(fault.NewBudget(1, fault.Unbounded)),
		run.WithPolicy(fault.WhenEffective(fault.Always(fault.Overriding))),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict.Agreed)
	// Output: 1
}

package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/word"
)

func TestFPlusOneToleratesMixedFaultKinds(t *testing.T) {
	// Definition 3's discussion allows a mix of functional faults across
	// objects. Figure 2's consistency proof relies only on the one
	// non-faulty object, so it tolerates f faulty objects even when they
	// deviate toward DIFFERENT relaxed postconditions: object 0
	// overriding, object 1 silent.
	proto := core.NewFPlusOne(2) // 3 objects; 0 and 1 faulty
	mixed := fault.PerObject(map[int]fault.Policy{
		0: fault.WhenEffective(fault.Always(fault.Overriding)),
		1: fault.WhenEffective(fault.Always(fault.Silent)),
	})
	for seed := int64(0); seed < 40; seed++ {
		res, err := run.ConsensusContext(context.Background(), &run.Settings{
			Protocol:  proto,
			Inputs:    []int64{10, 11, 12, 13},
			Scheduler: sim.NewRandom(seed),
			Budget:    fault.NewFixedBudget([]int{0, 1}, fault.Unbounded),
			Policy:    mixed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verdict.OK() {
			t.Fatalf("seed %d: mixed faults broke Figure 2: %s", seed, res.Verdict)
		}
	}
}

func TestArbitraryFaultBreaksValidity(t *testing.T) {
	// The §3.4 taxonomy's sharpest line: an overriding fault can only
	// ever write operation-supplied values, so validity survives any
	// overriding budget (experiment E9). An ARBITRARY fault can write a
	// value that is nobody's input — and one such fault makes Figure 2
	// decide a phantom value, violating validity itself.
	phantom := word.FromValue(99) // not an input of any process
	policy := fault.OnObjects(fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		return fault.Proposal{Kind: fault.Arbitrary, Write: phantom}
	}), 0)

	violations := 0
	for seed := int64(0); seed < 40; seed++ {
		res, err := run.ConsensusContext(context.Background(), &run.Settings{
			Protocol:  core.NewFPlusOne(1),
			Inputs:    []int64{10, 11, 12},
			Scheduler: sim.NewRandom(seed),
			Budget:    fault.NewFixedBudget([]int{0}, 1),
			Policy:    policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict.Violation == run.ViolationValidity {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("one arbitrary fault never broke validity in 40 runs; the taxonomy demo has no teeth")
	}
}

func TestMixedFaultsActuallyFired(t *testing.T) {
	// The mixed-tolerance test above is only meaningful if both kinds
	// genuinely fire; verify on one traced run.
	proto := core.NewFPlusOne(2)
	budget := fault.NewFixedBudget([]int{0, 1}, fault.Unbounded)
	mixed := fault.PerObject(map[int]fault.Policy{
		0: fault.WhenEffective(fault.Always(fault.Overriding)),
		1: fault.WhenEffective(fault.Always(fault.Silent)),
	})
	res, err := run.ConsensusContext(context.Background(), &run.Settings{
		Protocol:  proto,
		Inputs:    []int64{10, 11, 12, 13},
		Scheduler: sim.NewRoundRobin(),
		Budget:    budget,
		Policy:    mixed,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawOverride, sawSilent bool
	for _, e := range res.Sim.Log.Faults() {
		switch e.Fault {
		case fault.Overriding:
			sawOverride = true
		case fault.Silent:
			sawSilent = true
		}
	}
	if !sawOverride || !sawSilent {
		t.Errorf("mixed run fired override=%v silent=%v; want both\n%s",
			sawOverride, sawSilent, res.Sim.Log)
	}
}

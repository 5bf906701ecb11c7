package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
)

// Wait-freedom under fail-stop crashes (the §2 requirement the protocols
// are built for): survivors must decide — and agree — no matter where the
// other processes stop, even with faults active.
func TestProtocolsSurviveCrashes(t *testing.T) {
	type cfg struct {
		name   string
		proto  core.Protocol
		n      int
		faulty []int
		t      int
	}
	cases := []cfg{
		{"figure1 n=2", core.SingleCAS{}, 2, []int{0}, fault.Unbounded},
		{"figure2 f=1 n=4", core.NewFPlusOne(1), 4, []int{0}, fault.Unbounded},
		{"figure2 f=2 n=3", core.NewFPlusOne(2), 3, []int{0, 1}, fault.Unbounded},
		{"figure3 f=1 t=1 n=2", core.NewStaged(1, 1), 2, []int{0}, 1},
		{"figure3 f=2 t=1 n=3", core.NewStaged(2, 1), 3, []int{0, 1}, 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bound := c.proto.StepBound(c.n)
			for crashed := 0; crashed < c.n; crashed++ {
				for _, crashStep := range []int{0, 1, 2, bound / 2} {
					for seed := int64(0); seed < 8; seed++ {
						res, err := run.ConsensusContext(context.Background(), &run.Settings{
							Protocol: c.proto,
							Inputs:   distinctInputs(c.n),
							Scheduler: sim.NewCrash(sim.NewRandom(seed),
								map[int]int{crashed: crashStep}),
							Budget: fault.NewFixedBudget(c.faulty, c.t),
							Policy: fault.WhenEffective(fault.Rate(fault.Overriding, 0.3, seed)),
						})
						if err != nil {
							t.Fatal(err)
						}
						// A crashed process is abandoned, not a
						// wait-freedom violation; survivors must
						// have decided consistently and validly.
						if !res.Verdict.OK() {
							t.Fatalf("crash p%d@%d seed %d: %s",
								crashed, crashStep, seed, res.Verdict)
						}
						decided := 0
						for i, ok := range res.Sim.Decided {
							if ok {
								decided++
							} else if i != crashed {
								t.Fatalf("crash p%d@%d seed %d: survivor p%d never decided",
									crashed, crashStep, seed, i)
							}
						}
						if decided < c.n-1 {
							t.Fatalf("crash p%d@%d seed %d: only %d deciders",
								crashed, crashStep, seed, decided)
						}
					}
				}
			}
		})
	}
}

// Crashing every process but one: the lone survivor decides its own view.
func TestLoneSurvivorDecides(t *testing.T) {
	proto := core.NewStaged(2, 1)
	res, err := run.ConsensusContext(context.Background(), &run.Settings{
		Protocol: proto,
		Inputs:   distinctInputs(3),
		Scheduler: sim.NewCrash(sim.NewRoundRobin(),
			map[int]int{0: 1, 1: 1}),
		Budget: fault.NewFixedBudget([]int{0, 1}, 1),
		Policy: fault.WhenEffective(fault.Always(fault.Overriding)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sim.Decided[2] {
		t.Fatal("survivor must decide")
	}
	if !res.Verdict.OK() {
		t.Fatalf("verdict: %s", res.Verdict)
	}
}

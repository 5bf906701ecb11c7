package explore

import (
	"context"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/seeded"
	"repro/internal/sim"
)

// StressPCTWith samples executions like StressWith but schedules each run
// with a PCT scheduler (random priorities, depth−1 priority change points)
// instead of a uniform random walk. The paper's impossibility executions are
// long solo bursts punctuated by a few targeted preemptions — exactly the
// schedule shape PCT generates — so for deep violations (e.g. the covering
// execution of Theorem 19 at f ≥ 2) PCT reaches them orders of magnitude
// sooner than uniform sampling. stepEstimate bounds where change points are
// drawn (0 picks a default from the protocol's solo execution length).
func StressPCTWith(runs int, seed int64, depth, stepEstimate int, opts ...run.Option) (*StressOutcome, error) {
	return stressPCT(run.NewSettings(opts...), runs, seed, depth, stepEstimate)
}

func stressPCT(s *run.Settings, runs int, seed int64, depth, stepEstimate int) (*StressOutcome, error) {
	sp, err := newSampler(s)
	if err != nil {
		return nil, err
	}
	if stepEstimate <= 0 {
		// A solo run is the natural length scale of a PCT burst; the
		// cheap estimate below is the step count of an uncontended
		// fault-free execution times the process count.
		stepEstimate = max(soloSteps(s)*len(s.Inputs), 8)
	}
	rng := seeded.New(seed)
	return sp.batch(runs, rng, func() sim.Scheduler {
		return sim.NewPCT(rng.Int63(), stepEstimate, depth)
	})
}

// soloSteps measures the fault-free solo execution length of the protocol,
// which newSampler has checked compiles.
func soloSteps(s *run.Settings) int {
	stepper, _ := core.Compile(s.Protocol)
	bank := object.NewBank(s.Protocol.Objects(), nil, nil)
	res, err := sim.RunStepped(context.Background(), sim.SteppedConfig{
		Procs:     1,
		Program:   run.NewSteppedExec(stepper, bank, s.Inputs[:1]),
		Scheduler: sim.NewRoundRobin(),
		StepLimit: s.Protocol.StepBound(1),
	})
	if err != nil || len(res.Steps) == 0 {
		return 8
	}
	return res.Steps[0]
}

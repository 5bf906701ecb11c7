package explore

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StressOutcome summarizes a randomized exploration.
type StressOutcome struct {
	// Runs is the number of random executions performed.
	Runs int
	// Violations is the number of runs that violated a requirement.
	Violations int
	// First is the first violating execution found, or nil.
	First *Counterexample
	// MaxProcSteps is the largest per-process step count observed.
	MaxProcSteps int
	// TotalFaults is the sum of fault counts across runs.
	TotalFaults int
}

// OK reports that no violation was observed.
func (o *StressOutcome) OK() bool { return o.Violations == 0 }

// Rate returns the fraction of violating runs.
func (o *StressOutcome) Rate() float64 {
	if o.Runs == 0 {
		return 0
	}
	return float64(o.Violations) / float64(o.Runs)
}

// StressWith samples the execution tree uniformly at random (both
// scheduling and fault decisions) for the given number of runs. It is the
// scalable complement to exhaustive checking for configurations whose trees
// are too large to enumerate; a deterministic seed makes the whole batch
// replayable.
func StressWith(runs int, seed int64, opts ...run.Option) (*StressOutcome, error) {
	return stress(run.NewSettings(opts...), runs, seed)
}

func stress(s *run.Settings, runs int, seed int64) (*StressOutcome, error) {
	kind, err := sampleKind(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return sampleBatch(s, kind, runs, rng, func() sim.Scheduler { return uniform(rng) })
}

// SampleWith runs one uniformly random execution (scheduling and fault
// decisions both random, derived from the seed) and returns its record —
// verdict, schedule, and trace. Use it to tally violation kinds over many
// seeds where StressWith's aggregate view is not enough.
func SampleWith(seed int64, opts ...run.Option) (*Counterexample, error) {
	s := run.NewSettings(opts...)
	kind, err := sampleKind(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ce, _, err := sampleOnce(s, kind, rng, uniform(rng))
	return ce, err
}

// uniform schedules a uniformly random enabled process at every step.
func uniform(rng *rand.Rand) sim.Scheduler {
	return sim.SchedulerFunc(func(enabled []int) (int, bool) {
		return enabled[rng.Intn(len(enabled))], true
	})
}

// sampleKind validates the settings of a random sampling run and resolves
// the fault kind it injects.
func sampleKind(s *run.Settings) (fault.Kind, error) {
	if s.Protocol == nil {
		return 0, fmt.Errorf("explore: no protocol")
	}
	if len(s.Inputs) == 0 {
		return 0, fmt.Errorf("explore: no inputs")
	}
	if s.Kind == fault.None {
		return fault.Overriding, nil
	}
	return s.Kind, nil
}

// sampleBatch runs the given number of random executions, each scheduled by
// a fresh scheduler from next, with fault decisions drawn from rng.
func sampleBatch(s *run.Settings, kind fault.Kind, runs int, rng *rand.Rand, next func() sim.Scheduler) (*StressOutcome, error) {
	out := &StressOutcome{}
	for i := 0; i < runs; i++ {
		ce, stats, err := sampleOnce(s, kind, rng, next())
		if err != nil {
			return nil, err
		}
		out.Runs++
		out.TotalFaults += stats.faults
		if stats.maxSteps > out.MaxProcSteps {
			out.MaxProcSteps = stats.maxSteps
		}
		if !ce.Verdict.OK() {
			out.Violations++
			if out.First == nil {
				out.First = ce
			}
		}
	}
	return out, nil
}

// sampleOnce runs one execution scheduled by sched, with each admissible,
// observable fault decided by a coin from rng.
func sampleOnce(s *run.Settings, kind fault.Kind, rng *rand.Rand, sched sim.Scheduler) (*Counterexample, runStats, error) {
	budget := fault.NewFixedBudget(s.FaultyObjects, s.FaultsPerObject)
	policy := fault.PolicyFunc(func(op fault.Op) fault.Proposal {
		if !budget.Admits(op.Object) || !observable(kind, op) {
			return fault.NoFault
		}
		if rng.Intn(2) == 1 {
			return fault.Proposal{Kind: kind}
		}
		return fault.NoFault
	})

	bank := object.NewBank(s.Protocol.Objects(), budget, policy)
	var schedule []int
	recording := sim.SchedulerFunc(func(enabled []int) (int, bool) {
		pick, ok := sched.Next(enabled)
		if ok {
			schedule = append(schedule, pick)
		}
		return pick, ok
	})

	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}
	log := trace.New()
	res, err := sim.Run(sim.Config{
		Programs:  run.Programs(s.Protocol, bank, s.Inputs),
		Scheduler: recording,
		StepLimit: limit,
		Log:       log,
	})
	if err != nil && res == nil {
		return nil, runStats{}, err
	}

	stats := runStats{faults: budget.TotalFaults()}
	for _, st := range res.Steps {
		if st > stats.maxSteps {
			stats.maxSteps = st
		}
	}
	ce := &Counterexample{
		Schedule: schedule,
		Verdict:  run.Evaluate(s.Inputs, res, err),
		Trace:    log,
		Inputs:   s.Inputs,
	}
	return ce, stats, nil
}

package explore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/run"
	"repro/internal/seeded"
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
	sp, err := newSampler(s)
	if err != nil {
		return nil, err
	}
	rng := seeded.New(seed)
	sched := uniform(rng)
	return sp.batch(runs, rng, func() sim.Scheduler { return sched })
}

// SampleWith runs one uniformly random execution (scheduling and fault
// decisions both random, derived from the seed) and returns its record —
// verdict, schedule, and trace. Use it to tally violation kinds over many
// seeds where StressWith's aggregate view is not enough.
func SampleWith(seed int64, opts ...run.Option) (*Counterexample, error) {
	sp, err := newSampler(run.NewSettings(opts...))
	if err != nil {
		return nil, err
	}
	rng := seeded.New(seed)
	stats, err := sp.run(rng, uniform(rng))
	if err != nil {
		return nil, err
	}
	return sp.keep(stats)
}

// TallyWith runs, on one sampler, the executions SampleWith(seed),
// SampleWith(seed+1), …, SampleWith(seed+runs-1) run, and counts them by the
// requirement each violated (run.ViolationNone counts the clean ones). It
// keeps no record, so no run is replayed for its trace.
func TallyWith(runs int, seed int64, opts ...run.Option) (map[run.Violation]int, error) {
	sp, err := newSampler(run.NewSettings(opts...))
	if err != nil {
		return nil, err
	}
	rng := seeded.New(seed)
	sched := uniform(rng)
	tally := make(map[run.Violation]int)
	for i := 0; i < runs; i++ {
		if i > 0 {
			// Re-seeding in place yields the stream of a fresh
			// seeded.New(seed+i), without allocating one.
			rng.Seed(seed + int64(i))
		}
		if _, err := sp.run(rng, sched); err != nil {
			return nil, err
		}
		tally[sp.verdict.Violation]++
	}
	return tally, nil
}

// uniform schedules a uniformly random enabled process at every step.
func uniform(rng *rand.Rand) sim.Scheduler {
	return sim.SchedulerFunc(func(enabled []int) (int, bool) {
		return enabled[rng.Intn(len(enabled))], true
	})
}

// sampler runs random executions of one configuration on the protocol's
// compiled step machines. It holds one stepped runner, one SteppedExec, one
// bank and one budget for a whole batch, and resets them between runs.
// Each admissible, observable fault is
// decided by a coin from the run's source, drawn in the same order as the
// scheduler's draws from it, so a seed selects the same execution on any
// runner. A run records only its schedule and its coins; a run that must be
// kept (a batch's first violation, SampleWith's record) is replayed from
// them once more, with a trace log (keep). Not safe for concurrent use.
type sampler struct {
	s       *run.Settings
	kind    fault.Kind
	budget  *fault.Budget
	bank    *object.Bank
	stepped *sim.Stepped
	cfg     sim.SteppedConfig

	// sched and rng drive the current run. A replay has a sim.Script for
	// sched and no rng: its coins come from replay, the recorded coins
	// not yet used, and overdrawn reports a replay that wanted more.
	sched     sim.Scheduler
	rng       *rand.Rand
	replay    []bool
	overdrawn bool

	schedule []int       // the current run's picks
	coins    []bool      // the current run's fault coins, in draw order
	verdict  run.Verdict // the last run's, aliasing the runner's slices
}

// newSampler validates the settings of a random sampling run and builds its
// sampler. Sampling needs the protocol's compiled form, as the engine does.
func newSampler(s *run.Settings) (*sampler, error) {
	if s.Protocol == nil {
		return nil, fmt.Errorf("explore: no protocol")
	}
	if len(s.Inputs) == 0 {
		return nil, fmt.Errorf("explore: no inputs")
	}
	stepper, ok := core.Compile(s.Protocol)
	if !ok {
		return nil, fmt.Errorf("explore: protocol %s has no compiled form (core.Stepper)", s.Protocol.Name())
	}
	sp := &sampler{s: s, kind: s.Kind}
	if sp.kind == fault.None {
		sp.kind = fault.Overriding
	}
	sp.budget = fault.NewFixedBudget(s.FaultyObjects, s.FaultsPerObject)
	sp.bank = object.NewBank(s.Protocol.Objects(), sp.budget, fault.PolicyFunc(sp.decide))
	limit := s.StepLimit
	if limit <= 0 {
		limit = s.Protocol.StepBound(len(s.Inputs))
	}
	sp.stepped = sim.NewStepped(len(s.Inputs))
	sp.cfg = sim.SteppedConfig{
		Procs:     len(s.Inputs),
		Program:   run.NewSteppedExec(stepper, sp.bank, s.Inputs),
		Scheduler: sim.SchedulerFunc(sp.next),
		StepLimit: limit,
	}
	return sp, nil
}

// decide is the sampler's fault policy: a coin decides each admissible,
// observable fault.
func (sp *sampler) decide(op fault.Op) fault.Proposal {
	if !sp.budget.Admits(op.Object) || !observable(sp.kind, op) || !sp.coin() {
		return fault.NoFault
	}
	return fault.Proposal{Kind: sp.kind}
}

// coin draws the next fault coin from the run's source and records it; a
// replay takes the recorded coins in order instead.
func (sp *sampler) coin() bool {
	if sp.rng == nil {
		if len(sp.replay) == 0 {
			sp.overdrawn = true
			return false
		}
		c := sp.replay[0]
		sp.replay = sp.replay[1:]
		return c
	}
	c := sp.rng.Intn(2) == 1
	sp.coins = append(sp.coins, c)
	return c
}

// next is the runner's scheduler: the current run's, with each pick
// recorded.
func (sp *sampler) next(enabled []int) (int, bool) {
	pick, ok := sp.sched.Next(enabled)
	if ok {
		sp.schedule = append(sp.schedule, pick)
	}
	return pick, ok
}

// batch runs the given number of random executions, each scheduled by a
// fresh scheduler from next, with fault coins drawn from rng.
func (sp *sampler) batch(runs int, rng *rand.Rand, next func() sim.Scheduler) (*StressOutcome, error) {
	out := &StressOutcome{}
	for i := 0; i < runs; i++ {
		stats, err := sp.run(rng, next())
		if err != nil {
			return nil, err
		}
		out.Runs++
		out.TotalFaults += stats.faults
		out.MaxProcSteps = max(out.MaxProcSteps, stats.maxSteps)
		if !sp.verdict.OK() {
			out.Violations++
			if out.First == nil {
				if out.First, err = sp.keep(stats); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// run executes one execution scheduled by sched, with each fault coin drawn
// from rng, and evaluates it into sp.verdict.
func (sp *sampler) run(rng *rand.Rand, sched sim.Scheduler) (runStats, error) {
	sp.rng, sp.sched = rng, sched
	sp.coins = sp.coins[:0]
	return sp.exec(sp.cfg)
}

// exec resets the bank and the budget, runs cfg and evaluates the
// execution.
func (sp *sampler) exec(cfg sim.SteppedConfig) (runStats, error) {
	sp.schedule = sp.schedule[:0]
	sp.budget.Reset()
	sp.bank.Reset()
	res, err := sp.stepped.Run(context.Background(), cfg)
	if err != nil && res == nil {
		return runStats{}, err
	}
	stats := runStats{faults: sp.budget.TotalFaults()}
	for _, st := range res.Steps {
		stats.maxSteps = max(stats.maxSteps, st)
	}
	run.EvaluateInto(&sp.verdict, sp.s.Inputs, res, err)
	return stats, nil
}

// keep returns the last run (with the given stats) as a self-contained
// Counterexample. The run recorded only its schedule and coins, so keep
// replays it once more from them, with a sim.Script and a trace log. The
// replay must take the same steps, use up exactly the recorded coins and
// reproduce the run's verdict and counts, or keep returns an error: it
// never attaches the trace of a different execution.
func (sp *sampler) keep(stats runStats) (*Counterexample, error) {
	schedule := slices.Clone(sp.schedule)
	verdict := sp.verdict
	verdict.Decisions = slices.Clone(verdict.Decisions)
	verdict.Decided = slices.Clone(verdict.Decided)

	sp.rng, sp.sched = nil, sim.NewScript(schedule...)
	sp.replay, sp.overdrawn = sp.coins, false
	cfg := sp.cfg
	cfg.Log = trace.New()
	got, err := sp.exec(cfg)
	switch {
	case err != nil:
		return nil, fmt.Errorf("explore: recording replay of sampled run %v: %w", schedule, err)
	case got != stats || sp.overdrawn || len(sp.replay) != 0 ||
		!slices.Equal(sp.schedule, schedule) || !sameVerdict(&sp.verdict, &verdict):
		return nil, fmt.Errorf("explore: recording replay of sampled run %v does not reproduce it (run %s, replay %s)",
			schedule, verdict.String(), sp.verdict.String())
	}
	return &Counterexample{
		Schedule: schedule,
		Verdict:  verdict,
		Trace:    cfg.Log,
		Inputs:   sp.s.Inputs,
	}, nil
}

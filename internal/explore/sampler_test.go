package explore

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/refsim"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refSample is the reference form of one sampled execution: each
// protocol's Decide, the literal transcription of the paper's figures, on
// the goroutine-gated simulator, with a fresh bank, budget and trace log,
// recording every event and the schedule. Each admissible, observable fault
// is decided by a coin from rng, as the sampler decides it. It returns the
// run's record, its per-process step counts and its stats.
func refSample(s *run.Settings, kind fault.Kind, rng *rand.Rand, sched sim.Scheduler) (*Counterexample, []int, runStats, error) {
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
	res, err := refsim.Run(refsim.Config{
		Programs:  refsim.Programs(s.Protocol, bank, s.Inputs),
		Scheduler: recording,
		StepLimit: limit,
		Log:       log,
	})
	if err != nil && res == nil {
		return nil, nil, runStats{}, err
	}

	stats := runStats{faults: budget.TotalFaults()}
	for _, st := range res.Steps {
		stats.maxSteps = max(stats.maxSteps, st)
	}
	ce := &Counterexample{
		Schedule: schedule,
		Verdict:  run.Evaluate(s.Inputs, res, err),
		Trace:    log,
		Inputs:   s.Inputs,
	}
	return ce, slices.Clone(res.Steps), stats, nil
}

// refBatch is the reference form of a stress batch: refSample per run, each
// scheduled by a fresh scheduler from next, with coins drawn from rng.
func refBatch(s *run.Settings, kind fault.Kind, runs int, rng *rand.Rand, next func() sim.Scheduler) (*StressOutcome, error) {
	out := &StressOutcome{}
	for i := 0; i < runs; i++ {
		ce, _, stats, err := refSample(s, kind, rng, next())
		if err != nil {
			return nil, err
		}
		out.Runs++
		out.TotalFaults += stats.faults
		out.MaxProcSteps = max(out.MaxProcSteps, stats.maxSteps)
		if !ce.Verdict.OK() {
			out.Violations++
			if out.First == nil {
				out.First = ce
			}
		}
	}
	return out, nil
}

// refSoloSteps is soloSteps on the goroutine-gated simulator.
func refSoloSteps(s *run.Settings) int {
	bank := object.NewBank(s.Protocol.Objects(), nil, nil)
	res, err := refsim.Run(refsim.Config{
		Programs:  refsim.Programs(s.Protocol, bank, s.Inputs[:1]),
		Scheduler: sim.NewRoundRobin(),
		StepLimit: s.Protocol.StepBound(1),
	})
	if err != nil || len(res.Steps) == 0 {
		return 8
	}
	return res.Steps[0]
}

// samplerCase is one configuration the sampler is certified on; at least
// one of the reference's runs must end with the violation want (a clean
// run, for ViolationNone).
type samplerCase struct {
	name string
	s    run.Settings
	want run.Violation
}

// samplerCases are the configurations the sampler is certified on: clean
// and violating ones, both fault kinds it injects, bounded and unbounded
// budgets, and a step limit that wait-freedom violations cross.
func samplerCases() []samplerCase {
	return []samplerCase{
		{"figure1-n3-unbounded", run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(3),
			FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded}, run.ViolationConsistency},
		{"figure2-f1-n3-object0", run.Settings{Protocol: core.NewFPlusOne(1), Inputs: inputs(3),
			FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded}, run.ViolationNone},
		{"figure3-f1-t1-n3", run.Settings{Protocol: core.NewStaged(1, 1), Inputs: inputs(3),
			FaultyObjects: []int{0}, FaultsPerObject: 1}, run.ViolationConsistency},
		{"figure3-f2-t1-n4", run.Settings{Protocol: core.NewStaged(2, 1), Inputs: inputs(4),
			FaultyObjects: []int{0, 1}, FaultsPerObject: 1}, run.ViolationNone},
		{"figure3-f1-t3-n2", run.Settings{Protocol: core.NewStaged(1, 3), Inputs: inputs(2),
			FaultyObjects: []int{0}, FaultsPerObject: 3}, run.ViolationNone},
		{"silent-retry-n2-unbounded-limit16", run.Settings{Protocol: core.NewSilentRetry(1), Inputs: inputs(2),
			FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded, Kind: fault.Silent, StepLimit: 16}, run.ViolationNone},
		// A livelock past 16 steps needs 16 silent faults in a row, which
		// sampling reaches about once in 2^16 runs; at 3 steps a sampled
		// run crosses the limit about one time in ten.
		{"silent-retry-n2-unbounded-limit3", run.Settings{Protocol: core.NewSilentRetry(1), Inputs: inputs(2),
			FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded, Kind: fault.Silent, StepLimit: 3}, run.ViolationWaitFreedom},
	}
}

// TestSamplerMatchesReference certifies the compiled sampler against the
// goroutine reference (refSample) run for run. For every case, 200 seeds
// under the uniform scheduler and 200 under PCT (depth 3) run on one
// reused sampler and on the reference; each run must take the same
// schedule (so the same step count per process) and reach the same
// verdict, decisions, fault total and max steps. Every run is then kept,
// as a batch keeps its first violation and SampleWith its record, and the
// kept record's schedule, verdict and trace must equal the reference's
// event for event. The whole StressWith and StressPCTWith outcomes,
// including First, and TallyWith's counts must equal the reference's too.
func TestSamplerMatchesReference(t *testing.T) {
	const seeds = 200
	for _, tc := range samplerCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := &tc.s
			sp, err := newSampler(s)
			if err != nil {
				t.Fatal(err)
			}
			est := max(soloSteps(s)*len(s.Inputs), 8)
			if ref := max(refSoloSteps(s)*len(s.Inputs), 8); ref != est {
				t.Fatalf("PCT step estimate %d, reference %d", est, ref)
			}
			refTally, seen := map[run.Violation]int{}, map[run.Violation]int{}
			for _, pct := range []bool{false, true} {
				for seed := int64(0); seed < seeds; seed++ {
					label := fmt.Sprintf("pct=%v seed=%d", pct, seed)
					refRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					refSched, sched := uniform(refRng), uniform(rng)
					if pct {
						refSched, sched = sim.NewPCT(refRng.Int63(), est, 3), sim.NewPCT(rng.Int63(), est, 3)
					}
					want, wantSteps, wantStats, err := refSample(s, sp.kind, refRng, refSched)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					stats, err := sp.run(rng, sched)
					if err != nil {
						t.Fatalf("%s: sampler: %v", label, err)
					}
					if !slices.Equal(sp.schedule, want.Schedule) {
						t.Fatalf("%s: schedule %v, reference %v", label, sp.schedule, want.Schedule)
					}
					steps := make([]int, len(s.Inputs))
					for _, p := range sp.schedule {
						steps[p]++
					}
					if !slices.Equal(steps, wantSteps) {
						t.Fatalf("%s: steps per process %v, reference %v", label, steps, wantSteps)
					}
					if !sameVerdict(&sp.verdict, &want.Verdict) {
						t.Fatalf("%s: verdict %s (stopped=%v), reference %s (stopped=%v)",
							label, sp.verdict.String(), sp.verdict.Stopped, want.Verdict.String(), want.Verdict.Stopped)
					}
					if stats != wantStats {
						t.Fatalf("%s: max steps %d faults %d, reference %d and %d",
							label, stats.maxSteps, stats.faults, wantStats.maxSteps, wantStats.faults)
					}
					if !pct {
						refTally[want.Verdict.Violation]++
					}
					seen[want.Verdict.Violation]++
					kept, err := sp.keep(stats)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if d := diffRecord(want, kept); d != "" {
						t.Fatalf("%s: kept record: %s", label, d)
					}
				}
			}

			if seen[tc.want] == 0 {
				t.Errorf("the reference saw no %q violation in %d runs: %v", tc.want, 2*seeds, seen)
			}

			tally, err := TallyWith(seeds, 0, caseOptions(s)...)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(tally, refTally) {
				t.Errorf("TallyWith = %v, reference %v", tally, refTally)
			}

			got, err := stress(s, seeds, 7)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			want, err := refBatch(s, sp.kind, seeds, rng, func() sim.Scheduler { return uniform(rng) })
			if err != nil {
				t.Fatal(err)
			}
			if d := diffOutcome(want, got); d != "" {
				t.Errorf("StressWith: %s", d)
			}

			got, err = stressPCT(s, seeds, 7, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng = rand.New(rand.NewSource(7))
			want, err = refBatch(s, sp.kind, seeds, rng, func() sim.Scheduler { return sim.NewPCT(rng.Int63(), est, 3) })
			if err != nil {
				t.Fatal(err)
			}
			if d := diffOutcome(want, got); d != "" {
				t.Errorf("StressPCTWith: %s", d)
			}
		})
	}
}

// caseOptions returns the run options that rebuild a sampler case's
// settings.
func caseOptions(s *run.Settings) []run.Option {
	return []run.Option{
		run.WithProtocol(s.Protocol),
		run.WithInputs(s.Inputs...),
		run.WithFaultyObjects(s.FaultyObjects, s.FaultsPerObject),
		run.WithFaultKind(s.Kind),
		run.WithStepLimit(s.StepLimit),
	}
}

// diffRecord describes the first difference between a reference record and
// a kept one ("" when none).
func diffRecord(want, got *Counterexample) string {
	switch {
	case !slices.Equal(want.Schedule, got.Schedule):
		return fmt.Sprintf("schedule %v, reference %v", got.Schedule, want.Schedule)
	case !sameVerdict(&want.Verdict, &got.Verdict) || want.Verdict.Agreed != got.Verdict.Agreed:
		return fmt.Sprintf("verdict %s, reference %s", got.Verdict.String(), want.Verdict.String())
	case !slices.Equal(want.Inputs, got.Inputs):
		return fmt.Sprintf("inputs %v, reference %v", got.Inputs, want.Inputs)
	case got.Path != nil:
		return fmt.Sprintf("path %v on a sampled record", got.Path)
	}
	if d := diffEvents(want.Trace.Events(), got.Trace.Events()); d != "" {
		return "trace: " + d
	}
	return ""
}

// diffOutcome describes the first difference between a reference stress
// outcome and the sampler's ("" when none).
func diffOutcome(want, got *StressOutcome) string {
	if want.Runs != got.Runs || want.Violations != got.Violations ||
		want.MaxProcSteps != got.MaxProcSteps || want.TotalFaults != got.TotalFaults {
		return fmt.Sprintf("outcome %+v, reference %+v", *got, *want)
	}
	if (want.First == nil) != (got.First == nil) {
		return fmt.Sprintf("first violation %v, reference %v", got.First, want.First)
	}
	if want.First == nil {
		return ""
	}
	if d := diffRecord(want.First, got.First); d != "" {
		return "first violation: " + d
	}
	return ""
}

// TestSampleWithRefusesUncompiledProtocol: sampling runs the compiled
// machines only, so a protocol without a core.Stepper is refused, as the
// engine and run.ConsensusWith refuse it.
func TestSampleWithRefusesUncompiledProtocol(t *testing.T) {
	opts := []run.Option{run.WithProtocol(decideOnly{core.SingleCAS{}}), run.WithInputs(inputs(2)...)}
	if _, err := SampleWith(1, opts...); err == nil {
		t.Error("SampleWith accepted a protocol without a compiled form")
	}
	if _, err := StressWith(1, 1, opts...); err == nil {
		t.Error("StressWith accepted a protocol without a compiled form")
	}
	if _, err := StressPCTWith(1, 1, 3, 0, opts...); err == nil {
		t.Error("StressPCTWith accepted a protocol without a compiled form")
	}
	if _, err := TallyWith(1, 1, opts...); err == nil {
		t.Error("TallyWith accepted a protocol without a compiled form")
	}
}

// decideOnly hides a protocol's compiled form.
type decideOnly struct{ core.Protocol }

// TestSamplerKeepRefusesDivergentReplay: keep replays a run from its
// recorded schedule and coins, and a replay that does not use up exactly
// those coins is refused instead of attaching another execution's trace.
func TestSamplerKeepRefusesDivergentReplay(t *testing.T) {
	s := &run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(3),
		FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded}
	sp, err := newSampler(s)
	if err != nil {
		t.Fatal(err)
	}
	// sample runs the first seed whose run draws a fault coin.
	sample := func() runStats {
		for seed := int64(0); ; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stats, err := sp.run(rng, uniform(rng))
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.coins) > 0 {
				return stats
			}
		}
	}
	stats := sample()
	coins := slices.Clone(sp.coins)
	if _, err := sp.keep(stats); err != nil {
		t.Fatalf("faithful replay refused: %v", err)
	}
	for _, tc := range []struct {
		name  string
		coins []bool
	}{
		{"an extra coin", append(slices.Clone(coins), false)},
		{"a missing coin", coins[:len(coins)-1]},
	} {
		stats := sample()
		sp.coins = tc.coins
		if _, err := sp.keep(stats); err == nil {
			t.Errorf("replay with %s was kept", tc.name)
		}
	}
}

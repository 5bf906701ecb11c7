package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/hierarchy"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/word"
)

// runE6 reproduces the Section 5.2 observation: f CAS objects with bounded
// overriding faults sit at level f+1 of the Herlihy consensus hierarchy.
func runE6(w io.Writer, opts Options) error {
	maxF := 4
	hopts := hierarchy.Options{StressRuns: 400, Seed: opts.Seed, Workers: opts.Workers}
	if opts.Quick {
		maxF = 2
		hopts.StressRuns = 120
		hopts.ExhaustiveBudget = 8000
	}
	ests, err := hierarchy.Table(maxF, 1, hopts)
	if err != nil {
		return err
	}
	t := NewTable("f", "t", "consensus number", "expected (f+1)", "evidence per level")
	for _, est := range ests {
		evidence := ""
		for i, lv := range est.Levels {
			if i > 0 {
				evidence += ", "
			}
			status := "ok"
			if !lv.OK {
				status = "broken"
			}
			evidence += fmt.Sprintf("n=%d:%s(%s)", lv.N, status, lv.Evidence)
		}
		t.Add(est.F, est.T, est.ConsensusNumber, est.F+1, evidence)
		if est.ConsensusNumber != est.F+1 {
			t.Render(w)
			return fmt.Errorf("E6: f=%d estimated consensus number %d, want %d",
				est.F, est.ConsensusNumber, est.F+1)
		}
	}
	t.Render(w)
	return nil
}

// runE7 reproduces the Section 3.4 fault taxonomy and the expressiveness
// gap of Section 4: the constructions survive any budget-respecting
// overriding-fault pattern, yet a single well-aimed data fault — or an
// invisible fault corrupting the returned old value — defeats them,
// because they lean precisely on the structure Φ′ preserves.
func runE7(w io.Writer, opts Options) error {
	t := NewTable("scenario", "fault model", "budget", "outcome", "expected")

	// Silent faults, bounded budget: the retry protocol recovers.
	out, err := explore.CheckWith(context.Background(),
		run.WithProtocol(core.NewSilentRetry(2)),
		run.WithInputs(inputs(2)...),
		run.WithFaultyObjects([]int{0}, 2),
		run.WithFaultKind(fault.Silent),
		opts.engine(),
	)
	if err != nil {
		return err
	}
	outcome := describeExploreOutcome(out)
	t.Add("silent-retry, n=2", "functional/silent", "(1, 2)", outcome, "agreement")
	if !out.OK() || !out.Complete {
		t.Render(w)
		return fmt.Errorf("E7: bounded silent faults broke the retry protocol")
	}

	// Silent faults, unbounded: liveness is unrecoverable.
	out, err = explore.CheckWith(context.Background(),
		run.WithProtocol(core.NewSilentRetry(1)),
		run.WithInputs(inputs(2)...),
		run.WithFaultyObjects([]int{0}, fault.Unbounded),
		run.WithFaultKind(fault.Silent),
		run.WithStepLimit(16),
		opts.engine(),
		stopOnFirst,
	)
	if err != nil {
		return err
	}
	t.Add("silent-retry, n=2", "functional/silent", "(1, ∞)", describeExploreOutcome(out), "wait-freedom violation")
	if out.OK() || out.Violation.Verdict.Violation != run.ViolationWaitFreedom {
		t.Render(w)
		return fmt.Errorf("E7: unbounded silent faults must livelock the retry protocol")
	}

	// The expressiveness gap. Functional overriding faults, full budget,
	// exhaustive: Figure 3 at (f=1, t=1, n=2) provably survives...
	proto := core.NewStaged(1, 1)
	out, err = explore.CheckWith(context.Background(),
		run.WithProtocol(proto),
		run.WithInputs(inputs(2)...),
		run.WithFaultyObjects([]int{0}, 1),
		opts.engine(),
	)
	if err != nil {
		return err
	}
	t.Add("figure3(1,1), n=2", "functional/overriding", "(1, 1)", describeExploreOutcome(out), "agreement (exhaustive)")
	if !out.OK() || !out.Complete {
		t.Render(w)
		return fmt.Errorf("E7: functional-fault side of the gap failed")
	}

	// ...while ONE data fault (same (f=1, budget 1) shape, but striking
	// between operations with an arbitrary value) breaks it.
	in := inputs(2)
	df, err := adversary.DataFault(proto, in, 0, word.Pack(in[1], proto.MaxStage()))
	if err != nil {
		return err
	}
	outcome = "agreement"
	if df.Violated() {
		outcome = "violation: " + string(df.Verdict.Violation)
	}
	t.Add("figure3(1,1), n=2", "data fault (Afek et al.)", "(1, 1)", outcome, "consistency violation")
	if !df.Violated() {
		t.Render(w)
		return fmt.Errorf("E7: the aimed data fault failed to break the protocol")
	}

	// Invisible faults corrupt the returned old value — the one thing the
	// overriding constructions rely on (Φ′ of the overriding fault keeps
	// old correct; the invisible fault does not). One aimed invisible
	// fault on Figure 2's LAST object makes a process adopt a value
	// nobody converged on: the constructions do not transfer across
	// Section 3.4's fault kinds.
	runs := 600
	if opts.Quick {
		runs = 150
	}
	in3 := inputs(3)
	forgedOld := word.FromValue(in3[2])
	violations := 0
	for i := 0; i < runs; i++ {
		seed := opts.Seed + int64(i)
		invisible := fault.OnObjects(fault.PolicyFunc(func(fault.Op) fault.Proposal {
			return fault.Proposal{Kind: fault.Invisible, Return: forgedOld}
		}), 1)
		res, err := run.ConsensusWith(
			run.WithProtocol(core.NewFPlusOne(1)),
			run.WithInputs(in3...),
			run.WithScheduler(sim.NewRandom(seed)),
			run.WithBudget(fault.NewFixedBudget([]int{1}, 1)),
			run.WithPolicy(invisible),
		)
		if err != nil {
			return err
		}
		if !res.Verdict.OK() {
			violations++
		}
	}
	t.Add("figure2(f=1), n=3", "functional/invisible", "(1, 1)",
		fmt.Sprintf("%d/%d runs violated", violations, runs), "violations occur")
	if violations == 0 {
		t.Render(w)
		return fmt.Errorf("E7: invisible faults never broke Figure 2 in %d runs", runs)
	}

	t.Render(w)
	return nil
}

// describeExploreOutcome summarizes an exploration for a table cell. Its
// execution count is fixed for any worker count only when the run was
// complete or capped, or ran on one worker (stopOnFirst).
func describeExploreOutcome(out *explore.Outcome) string {
	if out.Violation != nil {
		return fmt.Sprintf("violation: %s (%d execs)", out.Violation.Verdict.Violation, out.Executions)
	}
	if out.Complete {
		return fmt.Sprintf("agreement (exhaustive, %d execs)", out.Executions)
	}
	return fmt.Sprintf("agreement (%d execs, capped)", out.Executions)
}

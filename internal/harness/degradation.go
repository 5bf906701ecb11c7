package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/run"
)

// runE9 probes the paper's future-work question on graceful degradation
// (Section 7, following Jayanti et al.): when a construction is pushed
// BEYOND its proven budget — more processes than n, more faults than t —
// *how* does it fail?
//
// The overriding fault's relaxed postcondition Φ′ still (i) writes only
// operation-supplied values and (ii) returns truthful old values, so the
// prediction is that over-budget failures are confined to CONSISTENCY:
// validity (decisions are always some process's input) and wait-freedom
// (overriding never blocks progress) survive. That is a graceful
// degradation in Jayanti et al.'s sense — the compound object's failure
// stays within a benign fault class.
func runE9(w io.Writer, opts Options) error {
	runs := 4000
	if opts.Quick {
		runs = 600
	}

	type cfgRow struct {
		name string
		note string
		opts []run.Option
	}
	rows := []cfgRow{
		{
			// Theorem 19 boundary: one process too many.
			"figure3(f=1,t=1), n=3 (> f+1)",
			"breakable (Thm 19); uniform sampling finds it",
			[]run.Option{
				run.WithProtocol(core.NewStaged(1, 1)),
				run.WithInputs(inputs(3)...),
				run.WithFaultyObjects([]int{0}, 1),
			},
		},
		{
			"figure3(f=2,t=1), n=4 (> f+1)",
			"breakable (Thm 19) but needs covering-grade coordination — see E5",
			[]run.Option{
				run.WithProtocol(core.NewStaged(2, 1)),
				run.WithInputs(inputs(4)...),
				run.WithFaultyObjects([]int{0, 1}, 1),
			},
		},
		{
			// Theorem 18 boundary: unbounded faults.
			"figure1, n=3, t=∞",
			"breakable (Thm 18); violations common",
			[]run.Option{
				run.WithProtocol(core.SingleCAS{}),
				run.WithInputs(inputs(3)...),
				run.WithFaultyObjects([]int{0}, fault.Unbounded),
			},
		},
		{
			// Fault-count boundary: the staged protocol budgeted for
			// t=1 while the adversary spends up to t=3 per object —
			// at n=2 this is exhaustively safe anyway (the two-process
			// anomaly of Theorem 4 extends to the staged protocol).
			"figure3(f=1,t=1), actual t=3, n=2",
			"provably robust anyway (n=2 anomaly, exhaustively verified)",
			[]run.Option{
				run.WithProtocol(core.NewStaged(1, 1)),
				run.WithInputs(inputs(2)...),
				run.WithFaultyObjects([]int{0}, 3),
			},
		},
	}

	t := NewTable("over-budget configuration", "runs", "consistency", "validity", "wait-freedom", "note")
	totalConsistency := 0
	for _, r := range rows {
		consistency, validity, waitFreedom, err := tallyViolations(r.opts, runs, opts.Seed)
		if err != nil {
			return err
		}
		t.Add(r.name, runs, consistency, validity, waitFreedom, r.note)
		totalConsistency += consistency
		if validity != 0 {
			t.Render(w)
			return fmt.Errorf("E9: %q produced %d validity violations — overriding faults must preserve validity", r.name, validity)
		}
		if waitFreedom != 0 {
			t.Render(w)
			return fmt.Errorf("E9: %q produced %d wait-freedom violations — overriding faults must not block progress", r.name, waitFreedom)
		}
	}
	t.Render(w)
	if totalConsistency == 0 {
		return fmt.Errorf("E9: no consistency violations observed in any over-budget configuration — the probe has no power")
	}
	fmt.Fprintf(w, "\nover-budget failures are consistency-only: validity and wait-freedom survive (graceful degradation)\n")

	// The f=2 row above shows 0 because its violation needs covering-grade
	// coordination; a PCT scheduler (solo bursts + targeted preemptions)
	// reaches it where uniform sampling cannot — and its violations must
	// also be consistency-only.
	pctRuns := 3000
	if opts.Quick {
		pctRuns = 800
	}
	pctOut, err := explore.StressPCTWith(pctRuns, opts.Seed, 3, 0,
		run.WithProtocol(core.NewStaged(2, 1)),
		run.WithInputs(inputs(4)...),
		run.WithFaultyObjects([]int{0, 1}, 1),
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PCT scheduler on figure3(f=2,t=1), n=4: %d/%d violations (uniform found 0)\n",
		pctOut.Violations, pctOut.Runs)
	if pctOut.First != nil {
		if v := pctOut.First.Verdict.Violation; v != run.ViolationConsistency {
			return fmt.Errorf("E9: PCT violation is %s, want consistency-only degradation", v)
		}
	}
	if pctOut.Violations == 0 && !opts.Quick {
		return fmt.Errorf("E9: PCT failed to reach the f=2 covering-shaped violation")
	}
	return nil
}

// tallyViolations samples the configuration's execution space, one run per
// seed from seed on, and counts violations by kind.
func tallyViolations(cfgOpts []run.Option, runs int, seed int64) (consistency, validity, waitFreedom int, err error) {
	tally, err := explore.TallyWith(runs, seed, cfgOpts...)
	if err != nil {
		return 0, 0, 0, err
	}
	return tally[run.ViolationConsistency], tally[run.ViolationValidity], tally[run.ViolationWaitFreedom], nil
}

package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/run"
)

// runE4 reproduces Theorem 18: with an unbounded number of overriding
// faults per object and more than two processes, f (all-faulty) CAS objects
// cannot carry consensus — the model checker finds a violating execution
// for every construction handed only faulty objects.
func runE4(w io.Writer, opts Options) error {
	cap := 300_000
	if opts.Quick {
		cap = 60_000
	}
	type row struct {
		name    string
		proto   core.Protocol
		n       int
		policy  fault.Policy // nil = checker's own fault choices
		mustDie bool
	}
	rows := []row{
		// The single-object protocol at n=3: the minimal Theorem 18
		// instance (its proof's "all f objects faulty" with f=1).
		{"figure1, all objects faulty", core.SingleCAS{}, 3, nil, true},
		// Figure 3 sized for t=1 while the real fault count is
		// unbounded: the premise of Theorem 6 breaks and so does the
		// protocol.
		{"figure3(f=1,t=1), actual t=∞", core.NewStaged(1, 1), 3, nil, true},
		// Figure 2 with f=1 but BOTH of its objects faulty: Theorem 18
		// for f'=2 says its two objects cannot suffice.
		{"figure2(f=1), all objects faulty", core.NewFPlusOne(1), 3, nil, true},
		// The reduced model from the proof: p0's CAS executions are
		// always faulty; only scheduling is explored.
		{"figure1, reduced model (p0 faulty)", core.SingleCAS{}, 3, adversary.ReducedModelPolicy(0), true},
		// Control: the same reduced model cannot break two processes
		// (Theorem 4).
		{"figure1, reduced model, n=2", core.SingleCAS{}, 2, adversary.ReducedModelPolicy(0), false},
	}

	t := NewTable("configuration", "n", "executions", "outcome", "schedule len")
	for _, r := range rows {
		// Every row stops at its first violation, so it runs on one worker
		// (stopOnFirst): the reported counterexample is canonical
		// (lexicographically least) for any worker count, but only one
		// worker fixes the execution count. The reduced-model rows drive a
		// fixed fault policy, which the partial-order reducer cannot reason
		// about, so they run unreduced whatever Options.Reduce says.
		reduce := opts.Reduce
		if r.policy != nil {
			reduce = run.ReduceOff
		}
		out, err := explore.CheckWith(context.Background(),
			run.WithProtocol(r.proto),
			run.WithDistinctInputs(r.n),
			run.WithAllObjectsFaulty(fault.Unbounded),
			run.WithPolicy(r.policy),
			run.WithMaxExecutions(cap),
			opts.engine(),
			stopOnFirst,
			run.WithReduce(reduce),
		)
		if err != nil {
			return err
		}
		outcome := "no violation"
		schedLen := "-"
		if out.Violation != nil {
			outcome = "violation: " + string(out.Violation.Verdict.Violation)
			schedLen = fmt.Sprintf("%d", len(out.Violation.Schedule))
		} else if out.Complete {
			outcome = "no violation (complete)"
		}
		t.Add(r.name, r.n, out.Executions, outcome, schedLen)
		if r.mustDie && out.Violation == nil {
			t.Render(w)
			return fmt.Errorf("E4: %q survived; Theorem 18 predicts a violation", r.name)
		}
		if !r.mustDie && out.Violation != nil {
			t.Render(w)
			return fmt.Errorf("E4: control %q violated: %s", r.name, out.Violation)
		}
	}
	t.Render(w)
	return nil
}

// runE5 reproduces Theorem 19: the covering adversary defeats any f-object
// protocol at n = f+2 while staying within a t = 1 fault budget — and the
// same attack is powerless at n = f+1 (tightness, Theorem 6).
func runE5(w io.Writer, opts Options) error {
	fs := []int{1, 2, 3, 4, 5}
	if opts.Quick {
		fs = []int{1, 2, 3}
	}
	t := NewTable("f", "n", "mode", "covered objects", "faults used", "outcome")
	for _, f := range fs {
		proto := core.NewStaged(f, 1)

		cov, err := adversary.Covering(proto, inputs(f+2))
		if err != nil {
			return err
		}
		outcome := "agreement"
		if cov.Violated() {
			outcome = "violation: " + string(cov.Verdict.Violation)
		}
		t.Add(f, f+2, "covering", len(cov.Covered), len(cov.Trace.Faults()), outcome)
		if !cov.Violated() {
			t.Render(w)
			return fmt.Errorf("E5: covering adversary failed at f=%d", f)
		}
		if got := len(cov.Trace.Faults()); got > f {
			t.Render(w)
			return fmt.Errorf("E5: adversary used %d faults at f=%d, exceeding its budget", got, f)
		}

		tight, err := adversary.CoveringTightness(proto, inputs(f+1))
		if err != nil {
			return err
		}
		outcome = "agreement"
		if tight.Violated() {
			outcome = "violation: " + string(tight.Verdict.Violation)
		}
		t.Add(f, f+1, "tightness", len(tight.Covered), len(tight.Trace.Faults()), outcome)
		if tight.Violated() {
			t.Render(w)
			return fmt.Errorf("E5: tightness run violated consensus at f=%d", f)
		}

		// Cross-check with the parallel engine for small f: exploring the
		// same configuration (all objects faulty, t=1, n=f+2) must also
		// find a violation — the directed covering attack and the
		// exhaustive search agree on Theorem 19.
		if f <= 2 {
			out, err := explore.CheckWith(context.Background(),
				run.WithProtocol(proto),
				run.WithInputs(inputs(f+2)...),
				run.WithFaultyObjects(objectIDs(proto.Objects()), 1),
				run.WithMaxExecutions(100_000),
				opts.engine(),
			)
			if err != nil {
				return err
			}
			outcome = "no violation"
			faultsUsed := "-"
			if out.Violation != nil {
				outcome = "violation: " + string(out.Violation.Verdict.Violation)
				faultsUsed = fmt.Sprintf("%d", len(out.Violation.Trace.Faults()))
			}
			t.Add(f, f+2, "engine explore", "-", faultsUsed, outcome)
			if out.Violation == nil {
				t.Render(w)
				return fmt.Errorf("E5: engine exploration found no violation at f=%d, n=%d", f, f+2)
			}
		}
	}
	t.Render(w)
	return nil
}

package explore

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

// reduceCase is one protocol configuration of the reduction differential
// sweep: every case is run with reduction off (the reference) and on, and
// the two outcomes must agree on everything reduction promises to preserve.
type reduceCase struct {
	name    string
	cfg     run.Settings
	violate bool // the full exploration is known to find a violation
}

// reduceCases covers every protocol family, clean and violating, with the
// checker's own fault policy (the only policy reduction supports) — the
// same matrix the compiled-vs-interpreted differential sweeps.
func reduceCases() []reduceCase {
	return []reduceCase{
		{"single-cas-clean", run.Settings{
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}, false},
		{"single-cas-violating", run.Settings{
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}, true},
		{"f-plus-one-clean", run.Settings{
			Protocol:        core.NewFPlusOne(1),
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}, false},
		{"staged-clean", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: 1,
		}, false},
		{"staged-violating", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: 1,
		}, true},
		{"f-plus-one-fault-free", run.Settings{
			Protocol: core.NewFPlusOne(1),
			Inputs:   inputs(3),
		}, false},
		{"silent-retry-clean", run.Settings{
			Protocol:        core.NewSilentRetry(2),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: 2,
			Kind:            fault.Silent,
		}, false},
		{"silent-livelock", run.Settings{
			Protocol:        core.NewSilentRetry(1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
			Kind:            fault.Silent,
			StepLimit:       12,
		}, true},
	}
}

func mustCheck(t *testing.T, cfg run.Settings) *Outcome {
	t.Helper()
	out, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffReduced compares a reduced outcome against the full reference and
// describes the first difference ("" when the reduction kept its promises).
// exact additionally requires the lex-least counterexample to be preserved
// verbatim — schedule, decisions, detail, and trace — which holds in default
// mode; verdict-only comparisons (aggressive mode, equal inputs where
// symmetry may rename processes) pass exact=false.
func diffReduced(full, red *Outcome, exact bool) string {
	if full.Complete != red.Complete {
		return fmt.Sprintf("completeness: full %v, reduced %v", full.Complete, red.Complete)
	}
	if full.OK() != red.OK() {
		return fmt.Sprintf("verdict: full violation=%v, reduced violation=%v", !full.OK(), !red.OK())
	}
	if red.Executions > full.Executions {
		return fmt.Sprintf("executions: reduced %d > full %d (reduction added leaves)", red.Executions, full.Executions)
	}
	if full.Violation == nil {
		return ""
	}
	fv, rv := full.Violation, red.Violation
	if fv.Verdict.Violation != rv.Verdict.Violation {
		return fmt.Sprintf("violation kind: full %s, reduced %s", fv.Verdict.Violation, rv.Verdict.Violation)
	}
	if !exact {
		return ""
	}
	if fv.Verdict.Detail != rv.Verdict.Detail {
		return fmt.Sprintf("violation detail: full %q, reduced %q", fv.Verdict.Detail, rv.Verdict.Detail)
	}
	if !reflect.DeepEqual(fv.Schedule, rv.Schedule) {
		return fmt.Sprintf("counterexample schedule: full %v, reduced %v", fv.Schedule, rv.Schedule)
	}
	if !reflect.DeepEqual(fv.Verdict.Decisions, rv.Verdict.Decisions) ||
		!reflect.DeepEqual(fv.Verdict.Decided, rv.Verdict.Decided) {
		return fmt.Sprintf("counterexample decisions: full %s, reduced %s", fv.Verdict.String(), rv.Verdict.String())
	}
	if d := diffEvents(fv.Trace.Events(), rv.Trace.Events()); d != "" {
		return "counterexample trace: " + d
	}
	return ""
}

// TestReduceMatchesFull is the reduction-equivalence gate (scripts/check.sh
// runs it by name): for every protocol family, clean and violating, on both
// execution forms, the reduced exploration must report the same verdict,
// the same completeness, and — in default mode with distinct inputs, where
// symmetry skipping cannot fire — the exact same lex-least counterexample
// (schedule, decisions, trace) as the full exploration, with no more
// executions than the full one.
func TestReduceMatchesFull(t *testing.T) {
	for _, tc := range reduceCases() {
		tc := tc
		for _, exec := range []run.ExecMode{run.ExecInterpreted, run.ExecCompiled} {
			exec := exec
			t.Run(fmt.Sprintf("%s/%s", tc.name, exec), func(t *testing.T) {
				t.Parallel()
				base := tc.cfg
				base.Exec = exec
				base.MaxExecutions = 2_000_000

				full := mustCheck(t, base)
				reduced := base
				reduced.Reduce = run.ReduceSafe
				red := mustCheck(t, reduced)

				if tc.violate == full.OK() {
					t.Fatalf("reference sweep: violation=%v, want %v", !full.OK(), tc.violate)
				}
				if d := diffReduced(full, red, true); d != "" {
					t.Fatal(d)
				}
				t.Logf("%d executions full, %d reduced (%.2fx)",
					full.Executions, red.Executions,
					float64(full.Executions)/float64(red.Executions))
			})
		}
	}
}

// TestReduceAggressiveKeepsVerdict pins aggressive mode's weaker contract:
// same verdict and completeness as the full sweep, never more executions
// than safe mode, on the compiled form it requires.
func TestReduceAggressiveKeepsVerdict(t *testing.T) {
	for _, tc := range reduceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := tc.cfg
			base.Exec = run.ExecCompiled
			base.MaxExecutions = 2_000_000

			full := mustCheck(t, base)
			safe := base
			safe.Reduce = run.ReduceSafe
			son := mustCheck(t, safe)
			agg := base
			agg.Reduce = run.ReduceAggressive
			aon := mustCheck(t, agg)

			if d := diffReduced(full, aon, false); d != "" {
				t.Fatal(d)
			}
			if aon.Executions > son.Executions {
				t.Errorf("aggressive explored %d executions, safe only %d", aon.Executions, son.Executions)
			}
		})
	}
}

// TestReduceAggressiveRefusesInterpreted pins prepare's gate: persistent
// sets need the step machines' footprints.
func TestReduceAggressiveRefusesInterpreted(t *testing.T) {
	_, err := check(&run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
		Exec:     run.ExecInterpreted,
		Reduce:   run.ReduceAggressive,
	})
	if err == nil {
		t.Fatal("aggressive reduction on the interpreted form must be refused")
	}
}

// TestReduceRefusesFixedPolicy pins prepare's other gate: the reducer
// reasons about the checker's own fault branches, not an opaque policy's.
func TestReduceRefusesFixedPolicy(t *testing.T) {
	_, err := check(&run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
		Policy:   fault.Always(fault.Overriding),
		Reduce:   run.ReduceSafe,
	})
	if err == nil {
		t.Fatal("reduction with FixedPolicy must be refused")
	}
}

// TestReduceSymmetryEqualInputs gives symmetry skipping something to bite
// on: with every input equal, processes start indistinguishable, so the
// reduced tree must be strictly smaller than sleep sets alone achieve with
// distinct inputs — while the verdict and completeness stay exact.
func TestReduceSymmetryEqualInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  run.Settings
	}{
		{"single-cas-n3", run.Settings{
			Protocol:        core.SingleCAS{},
			Inputs:          []int64{7, 7, 7},
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		}},
		{"staged-n2", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          []int64{7, 7},
			FaultyObjects:   []int{0},
			FaultsPerObject: 1,
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := tc.cfg
			base.MaxExecutions = 2_000_000
			full := mustCheck(t, base)
			reduced := base
			reduced.Reduce = run.ReduceSafe
			red := mustCheck(t, reduced)
			if d := diffReduced(full, red, false); d != "" {
				t.Fatal(d)
			}
			if red.Executions >= full.Executions {
				t.Errorf("equal inputs: reduced %d executions, full %d — symmetry never fired",
					red.Executions, full.Executions)
			}
			t.Logf("%d executions full, %d reduced", full.Executions, red.Executions)
		})
	}
}

// TestReduceEngineMatchesSequential runs the reduced exploration on the
// parallel engine and pins its determinism contract under reduction: same
// verdict, same counterexample, and (for complete clean sweeps) the same
// execution count as the sequential reduced checker, for any worker count.
func TestReduceEngineMatchesSequential(t *testing.T) {
	for _, tc := range reduceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.MaxExecutions = 2_000_000
			cfg.Reduce = run.ReduceSafe
			seq := mustCheck(t, cfg)

			for _, workers := range []int{1, 4} {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(workers)))
				if err != nil {
					t.Fatal(err)
				}
				if out.OK() != seq.OK() {
					t.Fatalf("workers=%d: verdict violation=%v, sequential %v", workers, !out.OK(), !seq.OK())
				}
				if seq.Violation != nil {
					if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
						t.Fatalf("workers=%d: counterexample schedule %v, sequential %v",
							workers, out.Violation.Schedule, seq.Violation.Schedule)
					}
					if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
						t.Fatalf("workers=%d: counterexample path %v, sequential %v",
							workers, out.Violation.Path, seq.Violation.Path)
					}
				} else {
					if !out.Complete || out.Executions != seq.Executions {
						t.Fatalf("workers=%d: %d executions (complete=%v), sequential %d (complete=%v)",
							workers, out.Executions, out.Complete, seq.Executions, seq.Complete)
					}
				}
			}
		})
	}
}

// TestReduceWithDedup composes the two pruning mechanisms. The sleep set is
// folded into the dedup fingerprint (reducer.salt), so two visits to the
// same canonical state merge only when they are truly interchangeable; the
// composition must keep exact verdicts and, on clean sweeps, completeness,
// and never explore more than the full sweep. One worker visits leaves in
// lex order, so its count is fixed and the bound holds even when a violation
// stops the run; two workers may both replay a leaf before the first
// violation becomes the bound, so at two workers the bound is checked on
// complete sweeps only, and a counterexample must match one worker's.
func TestReduceWithDedup(t *testing.T) {
	for _, tc := range reduceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.MaxExecutions = 2_000_000
			full := mustCheck(t, cfg)

			rcfg := cfg
			rcfg.Reduce = run.ReduceSafe
			var first *Outcome
			for _, workers := range []int{1, 2} {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&rcfg, run.WithWorkers(workers), run.WithDedup()))
				if err != nil {
					t.Fatal(err)
				}
				if out.OK() != full.OK() {
					t.Fatalf("workers=%d: dedup+reduce verdict: violation=%v, full sweep %v", workers, !out.OK(), !full.OK())
				}
				if full.Violation != nil {
					if out.Violation.Verdict.Violation != full.Violation.Verdict.Violation {
						t.Fatalf("workers=%d: dedup+reduce violation kind %s, full %s",
							workers, out.Violation.Verdict.Violation, full.Violation.Verdict.Violation)
					}
					if first != nil && !reflect.DeepEqual(out.Violation.Path, first.Violation.Path) {
						t.Fatalf("workers=%d: dedup+reduce counterexample path %v, one worker %v",
							workers, out.Violation.Path, first.Violation.Path)
					}
				} else if !out.Complete {
					t.Fatalf("workers=%d: dedup+reduce incomplete after %d executions on a clean sweep", workers, out.Executions)
				}
				if (workers == 1 || out.Complete) && out.Executions > full.Executions {
					t.Errorf("workers=%d: dedup+reduce explored %d executions, full sweep only %d",
						workers, out.Executions, full.Executions)
				}
				if first == nil {
					first = out
				}
			}
		})
	}
}

// FuzzReduceNeverMissesViolation fuzzes small configurations across every
// protocol family and fault kind: whatever the full exploration concludes,
// the reduced one must conclude too — a reduced sweep that verifies a
// configuration the full sweep refutes (or vice versa) is unsound.
func FuzzReduceNeverMissesViolation(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, false)
	f.Add(uint8(0), uint8(1), uint8(0), false, false) // single-cas n=3: violating
	f.Add(uint8(1), uint8(1), uint8(0), false, true)
	f.Add(uint8(2), uint8(0), uint8(1), false, false)
	f.Add(uint8(2), uint8(1), uint8(1), false, false) // staged n=3 t=1: violating
	f.Add(uint8(3), uint8(0), uint8(0), true, false)  // silent livelock
	f.Add(uint8(3), uint8(0), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, proto, nsel, tsel uint8, silent, equal bool) {
		var p core.Protocol
		switch proto % 4 {
		case 0:
			p = core.SingleCAS{}
		case 1:
			p = core.NewFPlusOne(1)
		case 2:
			p = core.NewStaged(1, 1)
		case 3:
			p = core.NewSilentRetry(1)
		}
		n := 2 + int(nsel%2)
		in := inputs(n)
		if equal {
			for i := range in {
				in[i] = 7
			}
		}
		budget := []int{fault.Unbounded, 1, 2}[tsel%3]
		kind := fault.Overriding
		if silent {
			kind = fault.Silent
		}
		cfg := run.Settings{
			Protocol:        p,
			Inputs:          in,
			FaultyObjects:   []int{0},
			FaultsPerObject: budget,
			Kind:            kind,
			StepLimit:       12,
			MaxExecutions:   500_000,
		}
		full, err := check(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Reduce = run.ReduceSafe
		red, err := check(&rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Complete && full.OK() {
			t.Skip("reference sweep capped without a verdict")
		}
		exact := !equal // symmetry may rename processes when inputs collide
		if d := diffReduced(full, red, exact); d != "" {
			t.Fatalf("proto=%d n=%d t=%d kind=%v equal=%v: %s", proto%4, n, budget, kind, equal, d)
		}
	})
}

package explore

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

var workerCounts = []int{1, 2, 4, 8}

// TestEngineMatchesSequentialComplete: on configurations whose tree is fully
// enumerable, the engine must reproduce the single-worker (sequential)
// outcome — same execution count, completeness, and observed maxima — for
// every worker count.
func TestEngineMatchesSequentialComplete(t *testing.T) {
	configs := map[string]run.Settings{
		"single-cas-fault-free": {
			Protocol: core.SingleCAS{},
			Inputs:   inputs(2),
		},
		"single-cas-unbounded-faults": {
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(2),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		},
		"staged-f1-t1": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: 1,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			seq, err := check(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Complete || !seq.OK() {
				t.Fatalf("reference run: complete=%v violation=%v", seq.Complete, seq.Violation)
			}
			for _, w := range workerCounts {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w)))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if out.Executions != seq.Executions {
					t.Errorf("workers=%d: executions = %d, want %d", w, out.Executions, seq.Executions)
				}
				if !out.Complete || !out.OK() {
					t.Errorf("workers=%d: complete=%v violation=%v", w, out.Complete, out.Violation)
				}
				if out.MaxProcSteps != seq.MaxProcSteps || out.MaxFaults != seq.MaxFaults {
					t.Errorf("workers=%d: maxima = (%d,%d), want (%d,%d)",
						w, out.MaxProcSteps, out.MaxFaults, seq.MaxProcSteps, seq.MaxFaults)
				}
				if out.Workers != w {
					t.Errorf("workers=%d: Outcome.Workers = %d", w, out.Workers)
				}
			}
		})
	}
}

// sequentialReference pins what the sequential depth-first checker reported
// on these configurations before the engine replaced it: execution count,
// completeness, maxima, and the lex-least counterexample path. Capped runs
// are included — with one worker the engine covers exactly the first
// MaxExecutions leaves in lexicographic order, as the sequential loop did.
var benchSlab = benchConfig()

var sequentialReference = []struct {
	name                            string
	cfg                             run.Settings
	executions, maxSteps, maxFaults int
	complete                        bool
	violation                       run.Violation
	path                            []int
}{
	{"single-cas-fault-free", run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(2)},
		2, 1, 0, true, "", nil},
	{"single-cas-unbounded", run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(2),
		FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded},
		4, 1, 1, true, "", nil},
	{"staged-f1-t1", run.Settings{Protocol: core.NewStaged(1, 1), Inputs: inputs(2),
		FaultyObjects: []int{0, 1, 2}, FaultsPerObject: 1},
		4356, 8, 1, true, "", nil},
	{"single-cas-3procs", run.Settings{Protocol: core.SingleCAS{}, Inputs: inputs(3),
		FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded},
		3, 1, 1, false, run.ViolationConsistency, []int{0, 0, 1, 0}},
	{"staged-3procs-unbounded", run.Settings{Protocol: core.NewStaged(1, 1), Inputs: inputs(3),
		FaultyObjects: []int{0, 1, 2}, FaultsPerObject: fault.Unbounded, MaxExecutions: 50_000},
		3, 6, 1, false, run.ViolationConsistency, []int{0, 0, 0, 0, 0, 0, 0, 1, 0}},
	{"f-plus-one-clean-reduced", run.Settings{Protocol: core.NewFPlusOne(1), Inputs: inputs(3),
		FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded, Reduce: run.ReduceSafe},
		72, 2, 2, true, "", nil},
	{"silent-livelock", run.Settings{Protocol: core.NewSilentRetry(1), Inputs: inputs(2),
		FaultyObjects: []int{0}, FaultsPerObject: fault.Unbounded, Kind: fault.Silent, StepLimit: 12},
		23, 13, 11, false, run.ViolationWaitFreedom,
		[]int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0}},
	{"covering-slab-cap500", *with(&benchSlab, run.WithMaxExecutions(500)),
		500, 26, 2, false, "", nil},
	{"covering-slab-cap4096", benchConfig(),
		4096, 26, 2, false, "", nil},
}

// TestEngineReproducesSequentialReference: the engine with one worker
// reproduces every pinned field of the retired sequential checker, and any
// worker count agrees with it on what Outcome guarantees — the verdict,
// completeness, the lex-least counterexample, and an exact cap.
func TestEngineReproducesSequentialReference(t *testing.T) {
	for _, tc := range sequentialReference {
		t.Run(tc.name, func(t *testing.T) {
			one, err := check(&tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var violation run.Violation
			var path []int
			if one.Violation != nil {
				violation, path = one.Violation.Verdict.Violation, one.Violation.Path
			}
			if one.Executions != tc.executions || one.Complete != tc.complete ||
				one.MaxProcSteps != tc.maxSteps || one.MaxFaults != tc.maxFaults ||
				violation != tc.violation || !reflect.DeepEqual(path, tc.path) {
				t.Fatalf("one worker: executions=%d complete=%v maxima=(%d,%d) violation=%q path=%v, want %d %v (%d,%d) %q %v",
					one.Executions, one.Complete, one.MaxProcSteps, one.MaxFaults, violation, path,
					tc.executions, tc.complete, tc.maxSteps, tc.maxFaults, tc.violation, tc.path)
			}
			capped := !tc.complete && tc.violation == ""
			for _, w := range []int{2, 8} {
				out, err := (&Engine{}).Check(context.Background(), with(&tc.cfg, run.WithWorkers(w)))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if out.Complete != tc.complete || out.OK() != (tc.violation == "") {
					t.Fatalf("workers=%d: complete=%v violation=%v, want %v %q", w, out.Complete, out.Violation, tc.complete, tc.violation)
				}
				if tc.complete && out.Executions != tc.executions {
					t.Errorf("workers=%d: executions = %d, want %d", w, out.Executions, tc.executions)
				}
				if capped && out.Executions != tc.cfg.MaxExecutions {
					t.Errorf("workers=%d: capped run executed %d, want exactly %d", w, out.Executions, tc.cfg.MaxExecutions)
				}
				if out.Violation != nil && !reflect.DeepEqual(out.Violation.Path, tc.path) {
					t.Errorf("workers=%d: violation path = %v, want %v", w, out.Violation.Path, tc.path)
				}
			}
		})
	}
}

// TestEngineCanonicalCounterexample: on violating configurations the engine
// must report the lexicographically least violating path — the first one a
// single worker reaches — for every worker count.
func TestEngineCanonicalCounterexample(t *testing.T) {
	configs := map[string]run.Settings{
		"single-cas-3procs": {
			Protocol:        core.SingleCAS{},
			Inputs:          inputs(3),
			FaultyObjects:   []int{0},
			FaultsPerObject: fault.Unbounded,
		},
		"staged-f1-t1-3procs": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(3),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   50_000,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			seq, err := check(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seq.OK() {
				t.Fatal("reference run found no violation")
			}
			for _, w := range workerCounts {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w)))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if out.OK() {
					t.Fatalf("workers=%d: no violation found", w)
				}
				if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
					t.Errorf("workers=%d: violation path = %v, want %v",
						w, out.Violation.Path, seq.Violation.Path)
				}
				if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
					t.Errorf("workers=%d: schedule = %v, want %v",
						w, out.Violation.Schedule, seq.Violation.Schedule)
				}
				if out.Violation.Verdict.Violation != seq.Violation.Verdict.Violation {
					t.Errorf("workers=%d: verdict = %v, want %v",
						w, out.Violation.Verdict.Violation, seq.Violation.Verdict.Violation)
				}
				if out.ViolationLatency <= 0 {
					t.Errorf("workers=%d: violation latency not recorded", w)
				}
			}
		})
	}
}

// TestEngineFindMinimalDeterministic: Exhaustive mode enumerates the complete
// tree (deterministic execution count) and selects the shortest-schedule
// counterexample, the same for every worker count.
func TestEngineFindMinimalDeterministic(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	best, seq, err := findMinimal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || !seq.Complete {
		t.Fatalf("reference FindMinimal: best=%v complete=%v", best, seq.Complete)
	}
	for _, w := range workerCounts {
		eng := &Engine{}
		ce, out, err := eng.FindMinimal(context.Background(), with(&cfg, run.WithWorkers(w)))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ce == nil {
			t.Fatalf("workers=%d: no counterexample", w)
		}
		if out.Executions != seq.Executions {
			t.Errorf("workers=%d: executions = %d, want %d", w, out.Executions, seq.Executions)
		}
		if !out.Complete {
			t.Errorf("workers=%d: exhaustive run not complete", w)
		}
		if len(ce.Schedule) != len(best.Schedule) {
			t.Errorf("workers=%d: schedule length = %d, want %d", w, len(ce.Schedule), len(best.Schedule))
		}
		if !reflect.DeepEqual(ce.Path, best.Path) {
			t.Errorf("workers=%d: minimal path = %v, want %v", w, ce.Path, best.Path)
		}
	}
}

// TestEngineExecutionCap: the atomic claim protocol must make a capped run
// stop at exactly the cap, independent of worker count.
func TestEngineExecutionCap(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
		MaxExecutions:   500,
	}
	for _, w := range workerCounts {
		eng := &Engine{}
		out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w)))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if out.Executions != cfg.MaxExecutions {
			t.Errorf("workers=%d: executions = %d, want exactly %d", w, out.Executions, cfg.MaxExecutions)
		}
		if out.Complete {
			t.Errorf("workers=%d: capped run reported complete", w)
		}
	}
}

// TestEngineDeadline: a context deadline must stop a large exploration
// promptly and surface as the returned error alongside the partial outcome.
func TestEngineDeadline(t *testing.T) {
	cfg := run.Settings{
		// staged(2,1) with 3 processes: millions of executions — far more
		// than fits in the deadline.
		Protocol:        core.NewStaged(2, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1, 2, 3, 4},
		FaultsPerObject: 1,
		MaxExecutions:   100_000_000,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	eng := &Engine{}
	out, err := eng.Check(ctx, with(&cfg, run.WithWorkers(4)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("engine took %v to honor a 100ms deadline", elapsed)
	}
	if out == nil {
		t.Fatal("no partial outcome returned")
	}
	if out.Executions == 0 {
		t.Error("no executions completed before the deadline")
	}
	if out.Complete {
		t.Error("interrupted run reported complete")
	}
}

// TestEngineImmediateCancel: a context cancelled before Check starts must
// return without exploring.
func TestEngineImmediateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := (&Engine{}).Check(ctx, &run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
		Workers:  2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if out == nil || out.Complete {
		t.Fatalf("want incomplete partial outcome, got %+v", out)
	}
}

// TestEngineProgressReports: the throughput reporter must deliver reports
// with monotone execution counts while a long run is in flight.
func TestEngineProgressReports(t *testing.T) {
	var reports []Progress
	eng := &Engine{
		ProgressEvery: 10 * time.Millisecond,
		Progress:      func(p Progress) { reports = append(reports, p) },
	}
	out, err := eng.Check(context.Background(), &run.Settings{
		Workers:         2,
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatal("enumeration must complete")
	}
	if len(reports) == 0 {
		t.Skip("run finished before the first report tick")
	}
	last := int64(0)
	for _, p := range reports {
		if p.Executions < last {
			t.Fatalf("execution count went backwards: %d after %d", p.Executions, last)
		}
		last = p.Executions
	}
}

// TestEngineCheckWithOptions: the unified options front door must drive the
// engine end to end.
func TestEngineCheckWithOptions(t *testing.T) {
	out, err := CheckWith(context.Background(),
		run.WithProtocol(core.SingleCAS{}),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(fault.Unbounded),
		run.WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}
	if out.Workers != 2 {
		t.Errorf("workers = %d, want 2", out.Workers)
	}
}

// TestEngineSubsetSweep: the subset sweep on four workers must agree with
// the single-worker (sequential) one.
func TestEngineSubsetSweep(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultsPerObject: 1,
	}
	seq, err := (&Engine{}).CheckAllSubsets(context.Background(), with(&cfg, run.WithWorkers(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{}
	par, err := eng.CheckAllSubsets(context.Background(), with(&cfg, run.WithWorkers(4)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.Executions != seq.Executions || par.Complete != seq.Complete {
		t.Errorf("engine sweep = (%d, %v), sequential = (%d, %v)",
			par.Executions, par.Complete, seq.Executions, seq.Complete)
	}
	if (par.Violation == nil) != (seq.Violation == nil) {
		t.Errorf("violation mismatch: engine=%v sequential=%v", par.Violation, seq.Violation)
	}
}

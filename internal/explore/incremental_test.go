package explore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/run"
)

// TestIncrementalReplayMatchesInterpreted is the engine-level equivalence
// gate of incremental replay (scripts/check.sh runs it by name): the
// compiled form resumes every leaf from its deepest saved state, the
// interpreted form replays every leaf from the root, and the two must report
// the same thing under every combination of dedup, reduction and worker
// count, on a clean and on a violating configuration. With one worker the
// enumeration is deterministic, so the leaf-level counters must match
// exactly too; only the dedup probe count may fall, because a resumed
// replay skips the probes of the prefix it shares with the previous leaf.
func TestIncrementalReplayMatchesInterpreted(t *testing.T) {
	cases := []struct {
		name string
		cfg  run.Settings
	}{
		{"clean", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   1_000_000,
		}},
		{"violating", run.Settings{
			Protocol:        core.NewStaged(2, 1),
			Inputs:          inputs(4),
			FaultyObjects:   []int{0, 1},
			FaultsPerObject: 1,
			MaxExecutions:   1_000_000,
		}},
	}
	for _, tc := range cases {
		for _, dedup := range []bool{false, true} {
			for _, reduce := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
				for _, workers := range []int{1, 2} {
					cfg := tc.cfg
					cfg.Dedup, cfg.Reduce, cfg.Workers = dedup, reduce, workers
					name := fmt.Sprintf("%s/dedup=%v/reduce=%s/workers=%d", tc.name, dedup, reduce, workers)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						compareForms(t, cfg)
					})
				}
			}
		}
	}
}

// compareForms runs cfg through both execution forms and compares their
// outcomes.
func compareForms(t *testing.T, cfg run.Settings) {
	t.Helper()
	comp, interp := cfg, cfg
	comp.Exec, interp.Exec = run.ExecCompiled, run.ExecInterpreted
	c, err := (&Engine{}).Check(context.Background(), &comp)
	if err != nil {
		t.Fatal(err)
	}
	i, err := (&Engine{}).Check(context.Background(), &interp)
	if err != nil {
		t.Fatal(err)
	}
	if c.OK() != i.OK() || c.Complete != i.Complete {
		t.Fatalf("compiled ok=%v complete=%v, interpreted ok=%v complete=%v", c.OK(), c.Complete, i.OK(), i.Complete)
	}
	if !c.OK() {
		cv, iv := c.Violation, i.Violation
		if !reflect.DeepEqual(cv.Path, iv.Path) {
			t.Errorf("lex-least path: compiled %v, interpreted %v", cv.Path, iv.Path)
		}
		if !reflect.DeepEqual(cv.Schedule, iv.Schedule) {
			t.Errorf("schedule: compiled %v, interpreted %v", cv.Schedule, iv.Schedule)
		}
		if cv.Verdict.Violation != iv.Verdict.Violation || cv.Verdict.Detail != iv.Verdict.Detail {
			t.Errorf("verdict: compiled %s, interpreted %s", cv.Verdict.String(), iv.Verdict.String())
		}
		if diff := diffEvents(iv.Trace.Events(), cv.Trace.Events()); diff != "" {
			t.Errorf("trace: %s", diff)
		}
	}
	if cfg.Workers != 1 {
		return
	}
	if c.Executions != i.Executions || c.ReducePrunes != i.ReducePrunes {
		t.Errorf("compiled executions/reduce-prunes = %d/%d, interpreted %d/%d",
			c.Executions, c.ReducePrunes, i.Executions, i.ReducePrunes)
	}
	if !cfg.Dedup {
		return
	}
	cs, is := c.Dedup, i.Dedup
	if cs.Hits != is.Hits || cs.LeafLookups != is.LeafLookups || cs.States != is.States {
		t.Errorf("compiled hits/leaf-lookups/states = %d/%d/%d, interpreted %d/%d/%d",
			cs.Hits, cs.LeafLookups, cs.States, is.Hits, is.LeafLookups, is.States)
	}
	if 3*cs.Lookups > is.Lookups {
		t.Errorf("compiled Lookups = %d, want at most a third of the interpreted %d", cs.Lookups, is.Lookups)
	}
	t.Logf("executions %d, lookups compiled %d / interpreted %d", c.Executions, cs.Lookups, is.Lookups)
}

// TestIncrementalReplayAllocatesNothing pins that saving and restoring
// snapshots reuses their buffers: once a sweep has grown the snapshot stack,
// a second sweep of the same tree, with the reducer's descent state and the
// tracker in every snapshot, allocates nothing.
func TestIncrementalReplayAllocatesNothing(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
		Reduce:          run.ReduceSafe,
	}
	kind, _, compiled, err := prepare(&cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !compiled {
		t.Fatal("staged has a compiled form")
	}
	c := &chooser{}
	es := newExecState(&cfg, kind, true, c, nil)
	sweep := func() {
		c.path, c.changed = c.path[:0], 0
		for {
			if _, _, pruned, err := es.runLeaf(context.Background()); err != nil {
				t.Fatal(err)
			} else if pruned {
				c.truncate(es.prunedAt)
			}
			if !c.next() {
				return
			}
		}
	}
	sweep() // warm-up: grows the path, the stack and the snapshot buffers
	if allocs := testing.AllocsPerRun(2, sweep); allocs != 0 {
		t.Errorf("a sweep allocates %.0f objects after warm-up, want 0", allocs)
	}
}

// TestDebugEventAllocatesNothingWhenFiltered pins the prune and donation
// event sites at zero allocations when the log drops Debug events: the
// field map must not be built before the level check.
func TestDebugEventAllocatesNothingWhenFiltered(t *testing.T) {
	r := &engineRun{runEnv: &runEnv{ev: obs.NewLog(io.Discard, obs.Info)}}
	if allocs := testing.AllocsPerRun(100, func() { r.debugEvent("dedup.prune", 1, "pos", 1000) }); allocs != 0 {
		t.Errorf("a filtered debug event allocates %.0f objects, want 0", allocs)
	}
	kept := obs.NewLog(io.Discard, obs.Debug)
	r.ev = kept
	r.debugEvent("dedup.prune", 1, "pos", 1000)
	if got := kept.Counts()["dedup.prune"]; got != 1 {
		t.Errorf("kept debug events = %d, want 1", got)
	}
}

// TestPrepareRefusesProcessLimits pins the typed refusals of the mechanisms
// whose encodings bound the process count: the dedup set stores one byte
// per choice (at most 256 processes), the reducer keeps process bitmasks
// (at most 64).
func TestPrepareRefusesProcessLimits(t *testing.T) {
	for _, tc := range []struct {
		mechanism string
		max       int
		opt       run.Option
	}{
		{"dedup", 256, run.WithDedup()},
		{"partial-order reduction", 64, run.WithReduce(run.ReduceSafe)},
	} {
		for _, n := range []int{tc.max, tc.max + 1} {
			s := run.NewSettings(run.WithProtocol(core.SingleCAS{}), run.WithDistinctInputs(n), tc.opt)
			_, _, _, err := prepare(s, nil, nil)
			var limit *ProcessLimitError
			switch {
			case n == tc.max && err != nil:
				t.Errorf("%s at %d processes refused: %v", tc.mechanism, n, err)
			case n > tc.max && !errors.As(err, &limit):
				t.Errorf("%s at %d processes: err = %v, want a *ProcessLimitError", tc.mechanism, n, err)
			case n > tc.max && (limit.Mechanism != tc.mechanism || limit.Max != tc.max || limit.Procs != n):
				t.Errorf("%s at %d processes: refusal %+v", tc.mechanism, n, *limit)
			}
		}
	}
}

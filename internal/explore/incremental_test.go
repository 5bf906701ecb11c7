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

// replayCounters are the one-worker counters of one engine cell: the
// enumeration is deterministic there, so each is pinned.
type replayCounters struct {
	executions, reducePrunes                int64
	hits, leafLookups, states, dedupLookups int64
}

// TestIncrementalReplayMatchesInterpreted is the engine-level equivalence
// gate of incremental replay (scripts/check.sh runs it by name), on a clean
// and on a violating configuration. The plain reference — one worker, no
// dedup, no reduction — is first swept by CrossCheck over exactly the
// leaves it visited, leaf for leaf against the goroutine-gated reference
// form, which replays every leaf from the root. Every combination of dedup,
// reduction and worker count, each resuming its leaves from saved states,
// must then report the reference's verdict and completeness, its lex-least
// counterexample (diffVerdicts; the choice path too when reduction is off,
// since a reduced path is a coordinate in the reduced tree), and at one
// worker the pinned counters.
func TestIncrementalReplayMatchesInterpreted(t *testing.T) {
	type cell struct {
		dedup  bool
		reduce run.ReduceMode
	}
	cases := []struct {
		name string
		cfg  run.Settings
		pins map[cell]replayCounters
	}{
		{"clean", run.Settings{
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   1_000_000,
		}, map[cell]replayCounters{
			{false, run.ReduceOff}:  {executions: 59_004},
			{false, run.ReduceSafe}: {executions: 43_616, reducePrunes: 6_112},
			{true, run.ReduceOff}:   {executions: 20_144, hits: 3_196, leafLookups: 23_340, states: 31_361, dedupLookups: 34_763},
			{true, run.ReduceSafe}:  {executions: 18_318, reducePrunes: 1_826, hits: 2_684, leafLookups: 22_828, states: 29_535, dedupLookups: 32_425},
		}},
		{"violating", run.Settings{
			Protocol:        core.NewStaged(2, 1),
			Inputs:          inputs(4),
			FaultyObjects:   []int{0, 1},
			FaultsPerObject: 1,
			MaxExecutions:   1_000_000,
		}, map[cell]replayCounters{
			{false, run.ReduceOff}:  {executions: 61},
			{false, run.ReduceSafe}: {executions: 30},
			{true, run.ReduceOff}:   {executions: 30, hits: 18, leafLookups: 48, states: 126, dedupLookups: 144},
			{true, run.ReduceSafe}:  {executions: 30, leafLookups: 30, states: 126, dedupLookups: 126},
		}},
	}
	for _, tc := range cases {
		plain, err := (&Engine{}).Check(context.Background(), with(&tc.cfg, run.WithWorkers(1)))
		if err != nil {
			t.Fatal(err)
		}
		sweep := tc.cfg
		sweep.MaxExecutions = plain.Executions
		rep, err := CrossCheck(&sweep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Diverged || rep.Executions != plain.Executions || rep.Complete != plain.Complete {
			t.Fatalf("%s: reference sweep of the engine's %d leaves: %+v", tc.name, plain.Executions, rep)
		}
		for c, pin := range tc.pins {
			for _, workers := range []int{1, 2} {
				cfg := tc.cfg
				cfg.Dedup, cfg.Reduce, cfg.Workers = c.dedup, c.reduce, workers
				name := fmt.Sprintf("%s/dedup=%v/reduce=%s/workers=%d", tc.name, c.dedup, c.reduce, workers)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					compareWithReference(t, cfg, plain, pin)
				})
			}
		}
	}
}

// compareWithReference runs cfg on the engine and compares its outcome with
// the plain reference's, and at one worker with the pinned counters.
func compareWithReference(t *testing.T, cfg run.Settings, ref *Outcome, pin replayCounters) {
	t.Helper()
	out, err := (&Engine{}).Check(context.Background(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffVerdicts(ref, out, true); d != "" {
		t.Error(d)
	}
	if !ref.OK() && out.Violation != nil && cfg.Reduce == run.ReduceOff &&
		!reflect.DeepEqual(ref.Violation.Path, out.Violation.Path) {
		t.Errorf("lex-least path: reference %v, got %v", ref.Violation.Path, out.Violation.Path)
	}
	if cfg.Workers != 1 {
		return
	}
	got := replayCounters{executions: int64(out.Executions), reducePrunes: out.ReducePrunes}
	if d := out.Dedup; d != nil {
		got.hits, got.leafLookups, got.states, got.dedupLookups = d.Hits, d.LeafLookups, d.States, d.Lookups
	}
	if got != pin {
		t.Errorf("counters = %+v, want %+v", got, pin)
	}
}

// TestIncrementalReplayAllocatesNothing pins that saving and restoring
// snapshots reuses their buffers: once a sweep has grown the snapshot stack,
// a second sweep of the same tree allocates nothing. It runs an engine
// worker's replay state on the plain tree (the prove-replay path) and with
// reduction, whose descent state and tracker sit in every snapshot, and
// pins that the worker records nothing: no trace log and no schedule, and
// on the plain tree no event observer either.
func TestIncrementalReplayAllocatesNothing(t *testing.T) {
	for _, reduce := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
		t.Run("reduce="+reduce.String(), func(t *testing.T) {
			cfg := run.Settings{
				Protocol:        core.NewStaged(1, 1),
				Inputs:          inputs(2),
				FaultyObjects:   []int{0},
				FaultsPerObject: fault.Unbounded,
				Reduce:          reduce,
				Workers:         1,
			}
			r, err := (&Engine{}).newRun(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			es := r.newWorkerState()
			var leaves int
			sweep := func() { leaves += sweepTask(t, es) }
			sweep() // warm-up: grows the path, the stack and the snapshot buffers
			if allocs := testing.AllocsPerRun(2, sweep); allocs != 0 {
				t.Errorf("a sweep allocates %.0f objects after warm-up, want 0", allocs)
			}
			if leaves == 0 {
				t.Fatal("the sweep replayed no leaf")
			}
			if es.log != nil || len(es.schedule) != 0 || es.rec != nil {
				t.Errorf("the worker recorded its leaves: log %v, schedule %v, recording state %v",
					es.log != nil, es.schedule, es.rec != nil)
			}
			if observed := es.steppedCfg.Observer != nil; observed != (reduce != run.ReduceOff) {
				t.Errorf("event observer present = %v with reduction %s", observed, reduce)
			}
		})
	}
}

// TestResumedReplayProbesOnlyNewStates pins where a worker probes the dedup
// set. It drives one worker's replay state over the staged f=1, n=2 tree as
// a single task, with reduction off and on. A resumed replay skips the
// decisions at or below the first position that changed since the previous
// leaf, which that leaf already probed with the same prefix, and the
// reducer cuts a sleep-blocked node before any probe. So every probe finds
// a new state or a prune, never a Revisit of the worker's own prefix, and
// never an Improved one (at one worker paths arrive in lexicographic
// order). The sweep must still reach the one-worker engine's executions
// and hits.
func TestResumedReplayProbesOnlyNewStates(t *testing.T) {
	for _, reduce := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
		t.Run("reduce="+reduce.String(), func(t *testing.T) {
			cfg := run.Settings{
				Protocol:        core.NewStaged(1, 1),
				Inputs:          inputs(2),
				FaultyObjects:   []int{0, 1, 2},
				FaultsPerObject: fault.Unbounded,
				MaxExecutions:   1_000_000,
				Dedup:           true,
				Reduce:          reduce,
				Workers:         1,
			}
			ref, err := (&Engine{}).Check(context.Background(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := (&Engine{}).newRun(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			leaves := sweepTask(t, r.newWorkerState())
			st := r.set.Stats()
			if revisits := st.Lookups - st.States - st.Hits - st.Improved; revisits != 0 || st.Improved != 0 {
				t.Errorf("lookups %d = states %d + hits %d + improved %d + %d revisits, want no revisit and no improvement",
					st.Lookups, st.States, st.Hits, st.Improved, revisits)
			}
			if leaves != ref.Executions || st.Hits != ref.Dedup.Hits {
				t.Errorf("sweep: %d executions and %d hits, engine: %d and %d", leaves, st.Hits, ref.Executions, ref.Dedup.Hits)
			}
		})
	}
}

// sweepTask drives a worker's replay state over the whole tree as one task,
// as runSubtree does without leases, donations or a violation bound, and
// returns the number of completed leaves.
func sweepTask(t *testing.T, es *execState) (leaves int) {
	c := es.c
	c.path, c.changed = c.path[:0], 0
	for {
		if _, pruned, err := es.runLeaf(context.Background()); err != nil {
			t.Fatal(err)
		} else if pruned {
			c.truncate(es.prunedAt)
		} else {
			leaves++
		}
		if !c.next() {
			return leaves
		}
	}
}

// TestDebugEventAllocatesNothingWhenFiltered pins the prune and donation
// event sites at zero allocations when the log drops Debug events: the
// field map must not be built before the level check.
func TestDebugEventAllocatesNothingWhenFiltered(t *testing.T) {
	r := &engineRun{ev: obs.NewLog(io.Discard, obs.Info)}
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
			_, _, err := prepare(s, nil)
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

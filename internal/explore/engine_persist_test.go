package explore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/store"
)

// TestEngineDedupMatchesPlain: on fully enumerable fault-free and faulty
// configurations, a deduplicated run must reach the same verdict as the
// plain engine while completing strictly fewer replays — pruned subtrees are
// exactly the ones whose root state a smaller path already covered.
func TestEngineDedupMatchesPlain(t *testing.T) {
	configs := map[string]run.Settings{
		"staged-f1-t1": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: 1,
		},
		"staged-f1-unbounded": {
			Protocol:        core.NewStaged(1, 1),
			Inputs:          inputs(2),
			FaultyObjects:   []int{0, 1, 2},
			FaultsPerObject: fault.Unbounded,
			MaxExecutions:   1_000_000,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			plain, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(4)))
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Complete || !plain.OK() {
				t.Fatalf("reference run: complete=%v violation=%v", plain.Complete, plain.Violation)
			}
			for _, w := range workerCounts {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w), run.WithDedup()))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !out.Complete || !out.OK() {
					t.Errorf("workers=%d: complete=%v violation=%v", w, out.Complete, out.Violation)
				}
				if out.Dedup == nil {
					t.Fatalf("workers=%d: no dedup stats on a dedup run", w)
				}
				if out.Executions >= plain.Executions {
					t.Errorf("workers=%d: dedup explored %d executions, plain %d — no reduction",
						w, out.Executions, plain.Executions)
				}
				if out.Dedup.Hits == 0 {
					t.Errorf("workers=%d: dedup reported zero hits over %d lookups",
						w, out.Dedup.Lookups)
				}
			}
		})
	}
}

// TestEngineDedupCanonicalCounterexample: deduplication keeps only the
// lexicographically least path per state, so the canonical (lex-least)
// counterexample must survive pruning exactly — for every worker count.
func TestEngineDedupCanonicalCounterexample(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	seq, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.OK() {
		t.Fatal("reference run found no violation")
	}
	for _, w := range workerCounts {
		eng := &Engine{}
		out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w), run.WithDedup()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if out.OK() {
			t.Fatalf("workers=%d: no violation found", w)
		}
		if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
			t.Errorf("workers=%d: violation path = %v, want %v", w, out.Violation.Path, seq.Violation.Path)
		}
		if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
			t.Errorf("workers=%d: schedule = %v, want %v", w, out.Violation.Schedule, seq.Violation.Schedule)
		}
		if out.Violation.Verdict.Violation != seq.Violation.Verdict.Violation {
			t.Errorf("workers=%d: verdict = %v, want %v",
				w, out.Violation.Verdict.Violation, seq.Violation.Verdict.Violation)
		}
	}
}

// TestEngineDedupExhaustive: in Exhaustive mode the minimal (shortest
// schedule, lex tie-break) counterexample must also survive deduplication:
// two paths reaching the same state have equal schedule lengths, so the
// pruned copy of any violation is never shorter than the kept one.
func TestEngineDedupExhaustive(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	best, _, err := findMinimal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		eng := &Engine{}
		ce, _, err := eng.FindMinimal(context.Background(), with(&cfg, run.WithWorkers(w), run.WithDedup()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ce == nil {
			t.Fatalf("workers=%d: no counterexample", w)
		}
		if len(ce.Schedule) != len(best.Schedule) {
			t.Errorf("workers=%d: schedule length = %d, want %d", w, len(ce.Schedule), len(best.Schedule))
		}
		if !reflect.DeepEqual(ce.Path, best.Path) {
			t.Errorf("workers=%d: minimal path = %v, want %v", w, ce.Path, best.Path)
		}
	}
}

// TestEngineDedupRejectsPolicy: a fixed fault policy is an opaque,
// possibly stateful closure, incompatible with state fingerprints and
// checkpointed replay.
func TestEngineDedupRejectsFixedPolicy(t *testing.T) {
	cfg := run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
		Policy:   fault.PolicyFunc(func(fault.Op) fault.Proposal { return fault.NoFault }),
	}
	if _, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithDedup())); err == nil {
		t.Fatal("dedup with FixedPolicy must be rejected")
	}
	st, err := store.Create(filepath.Join(t.TempDir(), "run"), store.Manifest{Protocol: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Store: st}).Check(context.Background(), &cfg); err == nil {
		t.Fatal("checkpointing with FixedPolicy must be rejected")
	}
}

// TestEngineInterruptedResume: an exploration killed repeatedly by short
// deadlines mid-enumeration and resumed from its run directory must reach
// the identical verdict as an uninterrupted run. The workload enumerates
// ~59k executions completely (no violation), so the resumed runs must stitch
// the checkpointed frontier back together without losing a single subtree —
// any lost task would surface as a premature "complete". Exercised with and
// without deduplication.
func TestEngineInterruptedResume(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
	}
	ref, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete || !ref.OK() {
		t.Fatalf("reference run: complete=%v violation=%v", ref.Complete, ref.Violation)
	}

	for name, dedupOn := range map[string]bool{"plain": false, "dedup": true} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			m, err := ManifestFor(with(&cfg, dedupIf(dedupOn)), false)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}

			var out *Outcome
			interrupted := 0
			for attempt := 0; ; attempt++ {
				if attempt > 100 {
					t.Fatal("exploration made no progress across 100 resumes")
				}
				eng := &Engine{Store: st}
				runCtx := context.Background()
				var cancel context.CancelFunc
				if interrupted < 3 {
					// First attempts: die young, mid-enumeration.
					runCtx, cancel = context.WithTimeout(runCtx, 30*time.Millisecond)
				}
				out, err = eng.Check(runCtx, with(&cfg, run.WithWorkers(4), dedupIf(dedupOn), checkpointEvery(5*time.Millisecond)))
				if cancel != nil {
					cancel()
				}
				if err == nil {
					break
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatal(err)
				}
				interrupted++
				if st, err = store.Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			if interrupted == 0 {
				t.Log("run completed before the first deadline; resume path not exercised")
			}
			if !out.Complete || !out.OK() {
				t.Fatalf("resumed run: complete=%v violation=%v", out.Complete, out.Violation)
			}
			if out.Elapsed <= 0 {
				t.Error("resumed run lost its accumulated elapsed time")
			}

			// The final checkpoint is marked done; re-running against it
			// replays the stored outcome without re-exploring.
			st, err = store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cp := st.Checkpoint()
			if cp == nil || !cp.Done {
				t.Fatalf("final checkpoint = %+v, want done", cp)
			}
			again, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(4), dedupIf(dedupOn)))
			if err != nil {
				t.Fatal(err)
			}
			if !again.Complete || !again.OK() {
				t.Errorf("re-resumed done run: complete=%v violation=%v", again.Complete, again.Violation)
			}
			if again.Executions != out.Executions {
				t.Errorf("done-run resume executions = %d, want stored %d", again.Executions, out.Executions)
			}
		})
	}
}

// TestEngineInterruptedResumeFindsViolation: an exploration interrupted
// before it reaches the violating region of the tree (deterministically, via
// an execution cap below the violation's position) must, once resumed, report
// the identical lex-least counterexample as an uninterrupted run.
func TestEngineInterruptedResumeFindsViolation(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   50_000,
	}
	ref, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OK() {
		t.Fatal("reference run found no violation")
	}

	dir := filepath.Join(t.TempDir(), "run")
	interruptedCfg := cfg
	interruptedCfg.MaxExecutions = 2 // dies before the violating execution
	m, err := ManifestFor(&interruptedCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Engine{Store: st}).Check(context.Background(), with(&interruptedCfg, run.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatal("interrupted run already found the violation; lower the cap")
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.OK() {
		t.Fatal("resumed run found no violation")
	}
	if !reflect.DeepEqual(resumed.Violation.Path, ref.Violation.Path) {
		t.Errorf("violation path = %v, want %v", resumed.Violation.Path, ref.Violation.Path)
	}
	if !reflect.DeepEqual(resumed.Violation.Schedule, ref.Violation.Schedule) {
		t.Errorf("schedule = %v, want %v", resumed.Violation.Schedule, ref.Violation.Schedule)
	}
	if resumed.Violation.Verdict.Violation != ref.Violation.Verdict.Violation {
		t.Errorf("verdict = %v, want %v", resumed.Violation.Verdict.Violation, ref.Violation.Verdict.Violation)
	}
}

// TestEngineResumeStartsAtLexLeastTask: a checkpoint lists its tasks in no
// lexicographic order (queued tasks first, then each worker's claimed one).
// A resume must still start at the lex-least unfinished leaf: here the
// tasks are stored lex-greatest last, where a LIFO frontier would take the
// huge right-hand subtree first and spend the whole cap before reaching the
// violation the uninterrupted run finds within a few executions.
func TestEngineResumeStartsAtLexLeastTask(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(3),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
		MaxExecutions:   50_000,
	}
	ref, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OK() {
		t.Fatal("reference run found no violation")
	}

	dir := filepath.Join(t.TempDir(), "run")
	capped := cfg
	capped.MaxExecutions = 2
	m, err := ManifestFor(&capped, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Store: st}).Check(context.Background(), with(&capped, run.WithWorkers(2))); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cp := st.Checkpoint()
	if cp == nil || len(cp.Tasks) < 2 {
		t.Fatalf("capped checkpoint = %+v, want several unfinished tasks", cp)
	}
	sort.Slice(cp.Tasks, func(i, j int) bool { return lexLess(cp.Tasks[i].Path, cp.Tasks[j].Path) })
	resumed, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.OK() {
		t.Fatalf("resumed run found no violation in %d executions", resumed.Executions)
	}
	if !reflect.DeepEqual(resumed.Violation.Path, ref.Violation.Path) {
		t.Errorf("violation path = %v, want %v", resumed.Violation.Path, ref.Violation.Path)
	}
	if resumed.Executions > ref.Executions {
		t.Errorf("resumed run took %d executions, the uninterrupted one %d", resumed.Executions, ref.Executions)
	}
}

// TestEngineResumeCappedRun: the execution cap is advisory (not part of the
// settings hash), so a capped run can resume with a higher cap and finish
// the enumeration it was cut off from.
func TestEngineResumeCappedRun(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	full, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatalf("reference enumeration incomplete: %+v", full)
	}

	dir := filepath.Join(t.TempDir(), "run")
	capped := cfg
	capped.MaxExecutions = full.Executions / 3
	m, err := ManifestFor(&capped, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Engine{Store: st}).Check(context.Background(), with(&capped, run.WithWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || out.Executions != capped.MaxExecutions {
		t.Fatalf("capped run: complete=%v executions=%d", out.Complete, out.Executions)
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp := st.Checkpoint(); cp == nil || cp.Done || len(cp.Tasks) == 0 {
		t.Fatalf("capped checkpoint = %+v, want unfinished tasks", cp)
	}
	// The uncapped settings hash equals the capped one: resume is allowed.
	m2, err := ManifestFor(&cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(m2); err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete || !resumed.OK() {
		t.Fatalf("resumed run: complete=%v violation=%v", resumed.Complete, resumed.Violation)
	}
}

// TestEngineCheckWithPersistence: the options front door must create a run
// store, refuse to resume it under mismatched settings (store.ErrMismatch),
// and resume it under matching ones.
func TestEngineCheckWithPersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	base := []run.Option{
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(1),
		run.WithWorkers(2),
		run.WithDedup(),
	}
	out, err := CheckWith(context.Background(), append(base, run.WithCheckpoint(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}

	// Same directory, different inputs: refused.
	_, err = CheckWith(context.Background(),
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(3),
		run.WithAllObjectsFaulty(1),
		run.WithResume(dir),
	)
	if !errors.Is(err, store.ErrMismatch) {
		t.Fatalf("err = %v, want store.ErrMismatch", err)
	}

	// Matching settings: resumes (and, being done, just replays the result).
	again, err := CheckWith(context.Background(), append(base, run.WithResume(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Complete || !again.OK() {
		t.Fatalf("resumed: complete=%v violation=%v", again.Complete, again.Violation)
	}
	if again.Executions != out.Executions {
		t.Errorf("done-run resume executions = %d, want stored %d", again.Executions, out.Executions)
	}

	// Checkpointing into an occupied directory is refused.
	if _, err := CheckWith(context.Background(), append(base, run.WithCheckpoint(dir, 0))...); err == nil {
		t.Fatal("WithCheckpoint over an existing run must fail")
	}
}

package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
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

// TestEngineInterruptedResume: an exploration cut short three times
// mid-enumeration and resumed from its run directory each time must reach
// the identical verdict as an uninterrupted run. The workload enumerates
// 59,004 executions completely (no violation), so the resumed runs must
// stitch the checkpointed frontier back together without losing a single
// subtree — any lost task would surface as a premature "complete". The
// cuts come at execution counts, not deadlines, so the host's speed does
// not decide whether a run is cut, and they land mid-lease. A checkpoint is one
// consistent cut (see frontier.snapshot), so without dedup, whose count
// depends on how workers race, a resumed run must count exactly the
// uninterrupted run's executions. Exercised plain, with reduction, with
// deduplication, and with deduplication and reduction, at one, two and
// four workers.
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
	cuts := []int64{10_000, 25_000, 40_000}

	for _, tc := range []struct {
		name    string
		workers int
		dedup   bool
		reduce  run.ReduceMode
	}{
		{"plain", 4, false, run.ReduceOff},
		{"plain-1-worker", 1, false, run.ReduceOff},
		{"reduce-2-workers", 2, false, run.ReduceSafe},
		{"dedup", 4, true, run.ReduceOff},
		{"dedup+reduce", 4, true, run.ReduceSafe},
	} {
		settings := with(&cfg, run.WithWorkers(tc.workers), dedupIf(tc.dedup), run.WithReduce(tc.reduce))
		t.Run(tc.name, func(t *testing.T) {
			want := ref.Executions
			if tc.reduce != run.ReduceOff && !tc.dedup {
				cellRef, err := (&Engine{}).Check(context.Background(), settings)
				if err != nil {
					t.Fatal(err)
				}
				want = cellRef.Executions
			}
			dir := filepath.Join(t.TempDir(), "run")
			m, err := ManifestFor(settings, false)
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
				if attempt > len(cuts) {
					t.Fatalf("exploration did not finish after %d cuts", len(cuts))
				}
				eng := &Engine{Store: st}
				reg := obs.NewRegistry()
				runCtx, cancel := context.WithCancel(context.Background())
				stop := func() {}
				if attempt < len(cuts) {
					stop = cutAt(reg.Counter("explore.executions"), cuts[attempt], cancel)
				}
				out, err = eng.Check(runCtx, with(settings, run.WithMetrics(reg), checkpointEvery(5*time.Millisecond)))
				stop()
				cancel()
				if err == nil {
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				interrupted++
				if st, err = store.Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			switch {
			case interrupted > 0:
			case tc.dedup:
				// Dedup finishes in about 20,000 executions, and a cut
				// lands only when the watcher is scheduled.
				t.Log("run completed before the first cut; resume path not exercised")
			default:
				t.Error("run completed before the first cut; resume path not exercised")
			}
			if !out.Complete || !out.OK() {
				t.Fatalf("resumed run: complete=%v violation=%v", out.Complete, out.Violation)
			}
			if !tc.dedup && out.Executions != want {
				t.Errorf("resumed run after %d cuts counted %d executions, uninterrupted run %d",
					interrupted, out.Executions, want)
			}
			if out.MaxProcSteps != ref.MaxProcSteps || out.MaxFaults != ref.MaxFaults {
				t.Errorf("resumed maxima = %d steps, %d faults; uninterrupted %d, %d",
					out.MaxProcSteps, out.MaxFaults, ref.MaxProcSteps, ref.MaxFaults)
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
			again, err := (&Engine{Store: st}).Check(context.Background(), settings)
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

// TestEngineResumeFromPeriodicCheckpoints: a SIGKILL leaves behind the
// last periodic checkpoint, written while the workers run. Copies of the
// run directory's checkpoint are taken throughout an uninterrupted
// two-worker run that checkpoints every millisecond, and each copy,
// resumed to completion, must count exactly the uninterrupted run's
// executions: the snapshot, the flushes and publishes, and the donations
// are one consistent cut (see frontier.snapshot), so no leaf is both
// counted and left in a task, or neither.
func TestEngineResumeFromPeriodicCheckpoints(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
		Workers:         2,
	}
	m, err := ManifestFor(&cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	var copies [][]byte
	done := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		seen := map[int]bool{}
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
			var cp store.Checkpoint
			if err != nil || json.Unmarshal(data, &cp) != nil || cp.Done || seen[cp.Seq] {
				continue
			}
			seen[cp.Seq] = true
			copies = append(copies, data)
		}
	}()
	ref, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, checkpointEvery(time.Millisecond)))
	close(done)
	<-collected
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete || !ref.OK() {
		t.Fatalf("uninterrupted run: complete=%v violation=%v", ref.Complete, ref.Violation)
	}
	if len(copies) == 0 {
		t.Skip("the run finished before a periodic checkpoint could be copied")
	}
	// Resume an evenly spread handful of the copies.
	for i := 0; i < len(copies); i += max(1, len(copies)/4) {
		resumeDir := filepath.Join(t.TempDir(), "copy")
		st, err := store.Create(resumeDir, m)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if err := os.WriteFile(filepath.Join(resumeDir, "checkpoint.json"), copies[i], 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err = store.Open(resumeDir); err != nil {
			t.Fatal(err)
		}
		out, err := (&Engine{Store: st}).Check(context.Background(), &cfg)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Complete || out.Executions != ref.Executions {
			t.Errorf("resume of checkpoint %d (at %d executions): complete=%v, %d executions, uninterrupted %d",
				st.Checkpoint().Seq, st.Checkpoint().Executions, out.Complete, out.Executions, ref.Executions)
		}
	}
}

// cutAt cancels a run once its execution counter reaches n, as the
// benchmark's durable workload does. The counter moves a lease at a time,
// so the cut lands wherever the workers are in their leases. stop returns
// after the watcher has exited.
func cutAt(c *obs.Counter, n int64, cancel func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if c.Load() >= n {
					cancel()
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// TestEngineInterruptedResumeFindsViolation: an exploration interrupted
// before it reaches the violating region of the tree (deterministically, via
// an execution cap below the violation's position) must, once resumed, report
// the identical lex-least counterexample as an uninterrupted run with the
// same settings, and the plain reference's schedule, decisions and trace —
// under every combination of dedup, reduction and worker count. A resume
// starts with an empty dedup set, so the dedup cells pin that losing the set
// costs pruning only. The exhaustive cell is cut just past its first
// violation, so the resume must replay a stored best path under reduction;
// its tree is too large to finish, so both of its runs end at the cap, which
// at one worker without dedup covers the same leaves.
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
	_, refMin, err := findMinimal(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		name       string
		dedup      bool
		reduce     run.ReduceMode
		workers    int
		exhaustive bool
		cut        int // executions of the interrupted run
	}
	var cells []cell
	for _, dedup := range []bool{false, true} {
		for _, reduce := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
			for _, workers := range []int{1, 2} {
				cells = append(cells, cell{
					name:  fmt.Sprintf("dedup=%v/reduce=%s/workers=%d", dedup, reduce, workers),
					dedup: dedup, reduce: reduce, workers: workers, cut: 2,
				})
			}
		}
	}
	cells = append(cells, cell{name: "exhaustive/reduce=on/workers=1",
		reduce: run.ReduceSafe, workers: 1, exhaustive: true, cut: 4})

	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := cfg
			s.Dedup, s.Reduce, s.Workers = c.dedup, c.reduce, c.workers
			eng := &Engine{Exhaustive: c.exhaustive}
			direct, err := eng.Check(context.Background(), &s)
			if err != nil {
				t.Fatal(err)
			}

			dir := filepath.Join(t.TempDir(), "run")
			cut := s
			cut.MaxExecutions = c.cut
			m, err := ManifestFor(&cut, c.exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			out, err := (&Engine{Store: st, Exhaustive: c.exhaustive}).Check(context.Background(), &cut)
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			if out.Complete {
				t.Fatal("the interrupted run completed")
			}
			if !c.exhaustive && !out.OK() {
				t.Fatal("interrupted run already found the violation; lower the cut")
			}
			if c.exhaustive && out.OK() {
				t.Fatal("interrupted run stored no best path; raise the cut")
			}

			st, err = store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			resumed, err := (&Engine{Store: st, Exhaustive: c.exhaustive}).Check(context.Background(), &s)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.OK() {
				t.Fatal("resumed run found no violation")
			}
			if !reflect.DeepEqual(resumed.Violation.Path, direct.Violation.Path) {
				t.Errorf("violation path = %v, uninterrupted run %v", resumed.Violation.Path, direct.Violation.Path)
			}
			plain := *ref
			if c.exhaustive {
				plain = *refMin
			}
			if c.workers > 1 {
				// Two workers may both replay leaves before the first
				// violation becomes the bound, so diffReduced's execution
				// bound holds at one worker only.
				plain.Executions = resumed.Executions
			}
			if d := diffReduced(&plain, resumed, true); d != "" {
				t.Error(d)
			}
		})
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

// TestEngineResumesRunWithStoredDedupSet: a checkpoint written by an older
// build holds the dedup set as a "dedup" array of fingerprints and paths.
// Such a capped run directory must still resume, with an empty set, to the
// reference verdict.
func TestEngineResumesRunWithStoredDedupSet(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
		Workers:         2,
		Dedup:           true,
	}
	ref, err := (&Engine{}).Check(context.Background(), with(&cfg, dedupIf(false)))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Complete || !ref.OK() {
		t.Fatalf("reference run: complete=%v violation=%v", ref.Complete, ref.Violation)
	}

	dir := filepath.Join(t.TempDir(), "run")
	capped := cfg
	capped.MaxExecutions = ref.Executions / 3
	m, err := ManifestFor(&capped, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Store: st}).Check(context.Background(), &capped); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Rewrite the checkpoint in the older layout, with a dedup section.
	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := st.Checkpoint()
	st.Close()
	if cp == nil || cp.Done || len(cp.Tasks) == 0 {
		t.Fatalf("capped checkpoint = %+v, want unfinished tasks", cp)
	}
	type entry struct {
		Hi   uint64 `json:"hi"`
		Lo   uint64 `json:"lo"`
		Path []int  `json:"path"`
	}
	older := struct {
		*store.Checkpoint
		Dedup []entry `json:"dedup"`
	}{Checkpoint: cp}
	for i := 0; i < 100; i++ {
		older.Dedup = append(older.Dedup, entry{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i), Path: []int{i % 2, i % 3}})
	}
	data, err := json.Marshal(&older)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := CheckWith(context.Background(),
		run.WithProtocol(cfg.Protocol), run.WithInputs(cfg.Inputs...),
		run.WithFaultyObjects(cfg.FaultyObjects, cfg.FaultsPerObject),
		run.WithWorkers(2), run.WithDedup(), run.WithResume(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("resumed run: complete=%v violation=%v", out.Complete, out.Violation)
	}
	if out.Executions < capped.MaxExecutions {
		t.Errorf("resumed run reports %d executions, fewer than the %d it restored", out.Executions, capped.MaxExecutions)
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

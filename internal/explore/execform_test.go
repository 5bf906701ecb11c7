package explore

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/trace/export"
)

// TestCheckpointRefusesExecFormMismatch: a checkpoint is a claim about what
// a specific engine explored, so a run directory created under one execution
// form refuses to resume under the other (store.ErrMismatch) — in both
// directions.
func TestCheckpointRefusesExecFormMismatch(t *testing.T) {
	for _, tc := range []struct {
		name            string
		created, resume run.ExecMode
	}{
		{"compiled-refuses-interpreted", run.ExecCompiled, run.ExecInterpreted},
		{"interpreted-refuses-compiled", run.ExecInterpreted, run.ExecCompiled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := benchConfig()
			cfg.Exec = tc.created
			m, err := ManifestFor(&cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			st, err := store.Create(filepath.Join(t.TempDir(), "run"), m)
			if err != nil {
				t.Fatal(err)
			}

			same, err := ManifestFor(&cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Verify(same); err != nil {
				t.Fatalf("same form must verify: %v", err)
			}

			cfg.Exec = tc.resume
			other, err := ManifestFor(&cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Verify(other); !errors.Is(err, store.ErrMismatch) {
				t.Fatalf("Verify under the other form = %v, want store.ErrMismatch", err)
			}
		})
	}
}

// TestExplainRefusesExecFormMismatch (the -explain bugfix): a capture must
// be replayed through the execution form that produced it — verifying a
// compiled capture on the goroutine path would silently prove the wrong
// thing. Captures without an exec entry (predating the compiled form) are
// replayed under whatever the configuration resolves.
func TestExplainRefusesExecFormMismatch(t *testing.T) {
	cfg := benchConfig()
	cfg.Exec = run.ExecInterpreted
	x := &export.Execution{Meta: export.Meta{Kind: "execution", Run: map[string]string{"exec": "compiled"}}}
	err := checkExecForm(&cfg, x.Meta.Run)
	if err == nil {
		t.Fatal("compiled capture replayed on the interpreted path without refusal")
	}
	if !strings.Contains(err.Error(), "captured by the compiled engine") ||
		!strings.Contains(err.Error(), "-engine compiled") {
		t.Errorf("refusal must name both forms and the fix, got: %v", err)
	}

	cfg.Exec = run.ExecCompiled
	if err := checkExecForm(&cfg, map[string]string{"exec": "interpreted"}); err == nil {
		t.Error("interpreted capture replayed on the compiled path without refusal")
	}
	if err := checkExecForm(&cfg, map[string]string{"exec": "compiled"}); err != nil {
		t.Errorf("matching form refused: %v", err)
	}
	if err := checkExecForm(&cfg, map[string]string{}); err != nil {
		t.Errorf("legacy capture without exec entry refused: %v", err)
	}
}

// TestExplainFileAsFormOverride drives the refusal end to end through a real
// capture file, the way `modelcheck -engine X -explain` reaches it: an
// explicit override contradicting the recorded form is refused, the matching
// override and the auto default both replay.
func TestExplainFileAsFormOverride(t *testing.T) {
	dir := t.TempDir()
	out, err := CheckWith(context.Background(),
		violatingOpts(run.WithTraceDir(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("expected a violation")
	}
	cap := globOne(t, dir, "violation-*.jsonl")

	x, err := export.ReadFile(cap)
	if err != nil {
		t.Fatal(err)
	}
	recorded := x.Meta.Run["exec"]
	if recorded != "compiled" && recorded != "interpreted" {
		t.Fatalf("capture records exec=%q, want compiled or interpreted", recorded)
	}
	other := run.ExecCompiled
	same := run.ExecInterpreted
	if recorded == "compiled" {
		other, same = same, other
	}

	if err := ExplainFileAs(io.Discard, cap, other); err == nil {
		t.Errorf("replaying a %s capture under the other form must be refused", recorded)
	} else if !strings.Contains(err.Error(), recorded) {
		t.Errorf("refusal must name the recorded form %q, got: %v", recorded, err)
	}
	if err := ExplainFileAs(io.Discard, cap, same); err != nil {
		t.Errorf("matching override refused: %v", err)
	}
	if err := ExplainFileAs(io.Discard, cap, run.ExecAuto); err != nil {
		t.Errorf("auto (defer to the recording) refused: %v", err)
	}
}

// TestEngineCancelMidLeaseWorkerSumCompiled is the stepped-runner variant of
// TestEngineCancelMidLeaseWorkerSum: cancellation strikes workers mid-lease
// while every leaf runs through the compiled stepped runner (pinned
// explicitly so a future default change cannot silently downgrade the
// coverage), and the per-worker counters plus the restored count must still
// sum to the reported total. Run under -race via scripts/check.sh.
func TestEngineCancelMidLeaseWorkerSumCompiled(t *testing.T) {
	cfg := benchConfig()
	cfg.Exec = run.ExecCompiled
	cfg.MaxExecutions = 1_000_000
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	out, err := (&Engine{LeaseSize: 16}).Check(ctx, with(&cfg, run.WithWorkers(4), run.WithMetrics(reg)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Complete {
		t.Error("cancelled run reported complete")
	}
	s := reg.Snapshot()
	if got := s.Counters["explore.executions"]; got != int64(out.Executions) {
		t.Errorf("explore.executions = %d, Outcome.Executions = %d", got, out.Executions)
	}
	sum := sumWorkerCounters(s, ".executions") + s.Counters["explore.executions.restored"]
	if sum != int64(out.Executions) {
		t.Errorf("worker sum + restored = %d, want %d — a lease was lost or double-counted on cancellation", sum, out.Executions)
	}
}

// TestEngineFormsAgreeOnCoveringSlab pins that the two forms agree through
// the full engine (workers, leases, frontier), not just the leaf-level
// CrossCheck, on the capped covering slab the benchmarks use — to exactly
// what Outcome promises for a capped run. With one worker the slab is the
// first MaxExecutions leaves in lexicographic order, so every field agrees;
// with two, which leaves ran depends on interleaving, so only the exact cap
// and the incomplete verdict do.
func TestEngineFormsAgreeOnCoveringSlab(t *testing.T) {
	cfg := benchConfig()
	for _, w := range []int{1, 2} {
		ref, err := (&Engine{}).Check(context.Background(),
			with(&cfg, run.WithWorkers(w), run.WithExecMode(run.ExecInterpreted)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Engine{}).Check(context.Background(),
			with(&cfg, run.WithWorkers(w), run.WithExecMode(run.ExecCompiled)))
		if err != nil {
			t.Fatal(err)
		}
		for form, out := range map[string]*Outcome{"interpreted": ref, "compiled": got} {
			if out.Executions != cfg.MaxExecutions || out.Complete {
				t.Errorf("workers=%d %s: executions=%d complete=%v, want exactly %d and incomplete",
					w, form, out.Executions, out.Complete, cfg.MaxExecutions)
			}
		}
		if w > 1 {
			continue
		}
		if got.MaxProcSteps != ref.MaxProcSteps || got.MaxFaults != ref.MaxFaults {
			t.Errorf("one worker: compiled maxima (%d,%d), interpreted (%d,%d)",
				got.MaxProcSteps, got.MaxFaults, ref.MaxProcSteps, ref.MaxFaults)
		}
		if (got.Violation == nil) != (ref.Violation == nil) ||
			(got.Violation != nil && !reflect.DeepEqual(got.Violation.Path, ref.Violation.Path)) {
			t.Errorf("one worker: compiled violation %v, interpreted %v", got.Violation, ref.Violation)
		}
	}
}

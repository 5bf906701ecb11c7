package explore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/run"
	"repro/internal/store"
)

// joinLedger joins the run directory's ledger as the named participant the
// way every process does, through JoinLedger, which binds the directory to
// the settings' manifest.
func joinLedger(t *testing.T, cfg run.Settings, runDir, owner string, ttl time.Duration) *ledger.Ledger {
	t.Helper()
	l, err := JoinLedger(with(&cfg, run.WithLedger(runDir), run.WithWorkerID(owner), run.WithLeaseTTL(ttl)), false)
	if err != nil {
		t.Fatalf("join %s: %v", owner, err)
	}
	return l
}

// ledgerParticipants runs n engines over one shared run-directory ledger,
// each as if it were a separate OS process, and finalizes the merge.
func ledgerParticipants(t *testing.T, cfg run.Settings, runDir string, n int, ttl time.Duration) (*Outcome, *ledger.Merged) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		l := joinLedger(t, cfg, runDir, "worker-"+string(rune('a'+i)), ttl)
		wg.Add(1)
		go func(i int, l *ledger.Ledger) {
			defer wg.Done()
			eng := &Engine{Ledger: l}
			_, errs[i] = eng.Check(context.Background(), with(&cfg, run.WithWorkers(2)))
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	out, m, err := FinalizeLedger(&cfg, runDir, false)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return out, m
}

// leverCells are the dedup × reduction settings the ledger equivalence
// tests run under: each cell's merge is held to the single-process run with
// the same settings.
var leverCells = []struct {
	dedup  bool
	reduce run.ReduceMode
}{{false, run.ReduceOff}, {false, run.ReduceSafe}, {true, run.ReduceOff}, {true, run.ReduceSafe}}

// TestEngineLedgerMatchesSingleProcessCovering: a covering sweep split
// across two ledger participants must merge to the exact single-process
// outcome under every dedup × reduction cell — same completeness, maxima,
// and, with dedup off, execution count (with dedup on, which of two racing
// paths claims a state first depends on the interleaving).
func TestEngineLedgerMatchesSingleProcessCovering(t *testing.T) {
	for _, lc := range leverCells {
		t.Run(fmt.Sprintf("dedup=%v/reduce=%s", lc.dedup, lc.reduce), func(t *testing.T) {
			cfg := run.Settings{
				Protocol:        core.NewStaged(1, 1),
				Inputs:          inputs(2),
				FaultyObjects:   []int{0, 1, 2},
				FaultsPerObject: fault.Unbounded,
				Dedup:           lc.dedup,
				Reduce:          lc.reduce,
			}
			seq, err := check(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Complete || !seq.OK() {
				t.Fatalf("reference run: complete=%v violation=%v", seq.Complete, seq.Violation)
			}
			// The merge must be exact on every attempt. Whether BOTH
			// participants got to publish, and whether the tree was split
			// into at least two results before it drained inside one
			// participant's first claim, are the same race against the tree
			// size, so retry a few times for that shape; the equality
			// assertions hold unconditionally each time.
			for attempt := 0; ; attempt++ {
				// A tight TTL keeps the export pump and claim polling fast
				// enough to hand work off within this small tree's ~50ms
				// runtime. Tight TTLs are safe: a stalled heartbeat only
				// fences the claim, whose discarded work is redone at the
				// next epoch.
				out, m := ledgerParticipants(t, cfg, t.TempDir(), 2, 100*time.Millisecond)
				if !lc.dedup && out.Executions != seq.Executions {
					t.Errorf("merged executions = %d, want %d", out.Executions, seq.Executions)
				}
				if !out.Complete || !out.OK() {
					t.Errorf("merged: complete=%v violation=%v", out.Complete, out.Violation)
				}
				if out.MaxProcSteps != seq.MaxProcSteps || out.MaxFaults != seq.MaxFaults {
					t.Errorf("merged maxima = (%d,%d), want (%d,%d)",
						out.MaxProcSteps, out.MaxFaults, seq.MaxProcSteps, seq.MaxFaults)
				}
				if t.Failed() || (len(m.Participants) == 2 && m.Results >= 2) {
					break
				}
				if attempt == 4 {
					t.Fatalf("participants = %v with %d merged results after %d attempts, want 2 participants and a multi-subtree merge",
						m.Participants, m.Results, attempt+1)
				}
			}
		})
	}
}

// TestEngineLedgerCanonicalCounterexample: on a violating configuration the
// merged counterexample must be the lexicographically least violating path —
// the exact counterexample the sequential checker reports under the same
// dedup × reduction cell, with the same schedule, verdict and completeness.
func TestEngineLedgerCanonicalCounterexample(t *testing.T) {
	for _, lc := range leverCells {
		t.Run(fmt.Sprintf("dedup=%v/reduce=%s", lc.dedup, lc.reduce), func(t *testing.T) {
			cfg := run.Settings{
				Protocol:        core.SingleCAS{},
				Inputs:          inputs(3),
				FaultyObjects:   []int{0},
				FaultsPerObject: fault.Unbounded,
				Dedup:           lc.dedup,
				Reduce:          lc.reduce,
			}
			seq, err := check(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seq.OK() {
				t.Fatal("reference run found no violation")
			}
			out, _ := ledgerParticipants(t, cfg, t.TempDir(), 2, 2*time.Second)
			if out.OK() {
				t.Fatal("merged run found no violation")
			}
			if out.Complete != seq.Complete {
				t.Errorf("merged complete = %v, want %v", out.Complete, seq.Complete)
			}
			if !reflect.DeepEqual(out.Violation.Path, seq.Violation.Path) {
				t.Errorf("merged violation path = %v, want %v", out.Violation.Path, seq.Violation.Path)
			}
			if !reflect.DeepEqual(out.Violation.Schedule, seq.Violation.Schedule) {
				t.Errorf("merged schedule = %v, want %v", out.Violation.Schedule, seq.Violation.Schedule)
			}
			if out.Violation.Verdict.Violation != seq.Violation.Verdict.Violation {
				t.Errorf("merged verdict = %v, want %v",
					out.Violation.Verdict.Violation, seq.Violation.Verdict.Violation)
			}
		})
	}
}

// TestEngineLedgerSurvivesDeadClaimHolder: a participant that claims the
// root subtree and dies without renewing loses its lease to expiry; the
// surviving participant reclaims the subtree at a higher epoch and the
// merge still reproduces the single-process outcome exactly.
func TestEngineLedgerSurvivesDeadClaimHolder(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	seq, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	const ttl = 300 * time.Millisecond
	dead := joinLedger(t, cfg, runDir, "doomed", ttl)
	// Claim the root and walk away: no renewals, no result, simulating a
	// SIGKILLed process mid-lease.
	if _, err := dead.Claim(context.Background()); err != nil {
		t.Fatalf("doomed claim: %v", err)
	}

	live := joinLedger(t, cfg, runDir, "survivor", ttl)
	eng := &Engine{Ledger: live}
	if _, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(2))); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	out, m, err := FinalizeLedger(&cfg, runDir, false)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if out.Executions != seq.Executions {
		t.Errorf("merged executions = %d, want %d", out.Executions, seq.Executions)
	}
	if !out.Complete || !out.OK() {
		t.Errorf("merged: complete=%v violation=%v", out.Complete, out.Violation)
	}
	if len(m.Participants) != 1 || m.Participants[0] != "survivor" {
		t.Errorf("participants = %v, want [survivor] only — the dead holder published nothing", m.Participants)
	}
	st, err := ledger.Status(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained || st.LeasesLive != 0 || st.LeasesExpired != 0 || st.TasksPending != 0 {
		t.Errorf("status after finalize: %+v, want drained with no leases or tasks", st)
	}
}

// TestEngineLedgerStoreMutuallyExclusive: the ledger is the durable state
// in distributed mode; configuring both must be refused loudly.
func TestEngineLedgerStoreMutuallyExclusive(t *testing.T) {
	l, _, err := ledger.Join(t.TempDir(), "w", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Ledger: l, Store: &store.Store{}}
	_, err = eng.Check(context.Background(), &run.Settings{
		Protocol: core.SingleCAS{},
		Inputs:   inputs(2),
	})
	if err == nil {
		t.Fatal("expected an error for Ledger+Store")
	}
}

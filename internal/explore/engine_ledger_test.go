package explore

import (
	"context"
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

// ledgerParticipants runs n engines over one shared run-directory ledger,
// each as if it were a separate OS process, and finalizes the merge.
func ledgerParticipants(t *testing.T, cfg run.Settings, runDir string, n int, ttl time.Duration) (*Outcome, *ledger.Merged) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		owner := string(rune('a' + i))
		l, _, err := ledger.Join(runDir, "worker-"+owner, ttl)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
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

// TestEngineLedgerMatchesSingleProcessCovering: a covering sweep split
// across two ledger participants must merge to the exact single-process
// outcome — same execution count (dedup off), completeness, and maxima.
func TestEngineLedgerMatchesSingleProcessCovering(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
	}
	seq, err := check(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Complete || !seq.OK() {
		t.Fatalf("reference run: complete=%v violation=%v", seq.Complete, seq.Violation)
	}
	// The merge must be exact on every attempt. Whether BOTH participants
	// got to publish before the tree drained is a race against the tree
	// size, so retry a few times for the two-participant shape; the
	// equality assertions hold unconditionally each time.
	for attempt := 0; ; attempt++ {
		// A tight TTL keeps the export pump and claim polling fast enough
		// to hand work off within this small tree's ~50ms runtime. Tight
		// TTLs are safe: a stalled heartbeat only fences the claim, whose
		// discarded work is redone at the next epoch.
		out, m := ledgerParticipants(t, cfg, t.TempDir(), 2, 100*time.Millisecond)
		if out.Executions != seq.Executions {
			t.Errorf("merged executions = %d, want %d", out.Executions, seq.Executions)
		}
		if !out.Complete || !out.OK() {
			t.Errorf("merged: complete=%v violation=%v", out.Complete, out.Violation)
		}
		if out.MaxProcSteps != seq.MaxProcSteps || out.MaxFaults != seq.MaxFaults {
			t.Errorf("merged maxima = (%d,%d), want (%d,%d)",
				out.MaxProcSteps, out.MaxFaults, seq.MaxProcSteps, seq.MaxFaults)
		}
		if m.Results < 2 {
			t.Errorf("merged results = %d, want a multi-subtree merge", m.Results)
		}
		if t.Failed() || len(m.Participants) == 2 {
			break
		}
		if attempt == 4 {
			t.Fatalf("participants = %v after %d attempts, want 2", m.Participants, attempt+1)
		}
	}
}

// TestEngineLedgerCanonicalCounterexample: on a violating configuration the
// merged counterexample must be the lexicographically least violating path —
// the exact counterexample the sequential checker reports.
func TestEngineLedgerCanonicalCounterexample(t *testing.T) {
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
	out, _ := ledgerParticipants(t, cfg, t.TempDir(), 2, 2*time.Second)
	if out.OK() {
		t.Fatal("merged run found no violation")
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
	dead, _, err := ledger.Join(runDir, "doomed", ttl)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the root and walk away: no renewals, no result, simulating a
	// SIGKILLed process mid-lease.
	if _, err := dead.Claim(context.Background()); err != nil {
		t.Fatalf("doomed claim: %v", err)
	}

	live, _, err := ledger.Join(runDir, "survivor", ttl)
	if err != nil {
		t.Fatal(err)
	}
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

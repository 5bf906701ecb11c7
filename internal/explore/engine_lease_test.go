package explore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
)

// TestDedupStatsLeafAccounting pins the dedup effectiveness accounting on a
// known sweep (the fully enumerable staged f=1 workload): LeafLookups counts
// replays (one per completed or pruned execution, not one per step), Hits
// counts pruned replays, and HitRate is Hits/LeafLookups — the one
// replay-level pair every surface (CLI, gauges, bench) reports. The old
// formula divided prunes by per-step Visit calls — nearly all of them
// Revisits of the worker's own prefix — and reported a 60%-savings run as a
// 1% hit rate; a later counter ("executions saved") double-reported Hits
// under a name that promised pruned subtree leaves, which are unknowable
// without exploring them (leaf-level savings are measured by bench.sh as
// plain-vs-dedup Executions instead).
func TestDedupStatsLeafAccounting(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
	}
	reg := obs.NewRegistry()
	out, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(1), run.WithDedup(), run.WithMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
	}
	st := out.Dedup
	if st == nil {
		t.Fatal("no dedup stats")
	}
	if st.Hits == 0 {
		t.Fatal("sweep with known state convergence pruned no replays")
	}
	// Every replay — completed or pruned — is one leaf lookup, and a pruned
	// replay halts at its first Prune decision, so leaf lookups partition
	// exactly into completed executions and hits.
	if want := int64(out.Executions) + st.Hits; st.LeafLookups != want {
		t.Errorf("LeafLookups = %d, want executions+hits = %d", st.LeafLookups, want)
	}
	if got, want := st.HitRate(), float64(st.Hits)/float64(st.LeafLookups); got != want {
		t.Errorf("HitRate() = %v, want hits/leaf-lookups = %v", got, want)
	}
	if st.HitRate() < 0.1 || st.HitRate() >= 1 {
		t.Errorf("HitRate() = %v, implausible for the known sweep", st.HitRate())
	}
	// The per-step ratio is the misreporting bug: the honest rate must be
	// far above it (Lookups counts every scheduling decision).
	if oldRate := float64(st.Hits) / float64(st.Lookups); st.HitRate() < 5*oldRate {
		t.Errorf("HitRate() = %v, not meaningfully above the per-step ratio %v", st.HitRate(), oldRate)
	}
	// The engine's prune site and the set's counters agree, and the gauges
	// are live on the registry.
	s := reg.Snapshot()
	if got := s.Counters["explore.dedup.prunes"]; got != st.Hits {
		t.Errorf("explore.dedup.prunes = %d, Hits = %d", got, st.Hits)
	}
	if s.Gauges["dedup.hits"] != st.Hits {
		t.Errorf("dedup.hits gauge = %d, want %d", s.Gauges["dedup.hits"], st.Hits)
	}
	if s.Gauges["dedup.leaf_lookups"] != st.LeafLookups {
		t.Errorf("dedup.leaf_lookups gauge = %d, want %d", s.Gauges["dedup.leaf_lookups"], st.LeafLookups)
	}
	// The retired "executions saved" surfaces must stay gone: the counter
	// was Hits wearing a subtree-leaves name.
	if _, ok := s.Gauges["dedup.executions_saved"]; ok {
		t.Error("dedup.executions_saved gauge resurfaced")
	}
}

// TestEngineCapExactUnderDedup is the regression test for the capped-latch
// race: a prune used to claim an execution and release it after the cap
// check, so a run whose cap equals its own completed-execution count could
// latch `capped` (and print "incomplete") spuriously. With the lease ledger
// a pruned replay never touches the cap, so the cap binds exactly on
// completed executions.
func TestEngineCapExactUnderDedup(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
	}
	full, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(1), run.WithDedup()))
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete || full.Dedup.Hits == 0 {
		t.Fatalf("reference run: complete=%v hits=%d; need a completing sweep with prunes",
			full.Complete, full.Dedup.Hits)
	}
	// Same deterministic single-worker run, cap set to exactly its size:
	// it must still complete with exactly that many executions.
	capped := cfg
	capped.MaxExecutions = full.Executions
	out, err := (&Engine{}).Check(context.Background(), with(&capped, run.WithWorkers(1), run.WithDedup()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || out.Executions != full.Executions {
		t.Errorf("cap == run size: complete=%v executions=%d, want complete with %d — capped latch fired on a pruned replay",
			out.Complete, out.Executions, full.Executions)
	}
}

// TestEngineCancelMidLeaseWorkerSum: cancellation strikes while workers sit
// on partially spent leases; the flush on the abandon path must still settle
// every locally tallied execution, so the per-worker counters plus the
// restored count sum to the reported total — the invariant the
// modelcheck-report/v1 validator checks. Run under -race via scripts/check.sh.
func TestEngineCancelMidLeaseWorkerSum(t *testing.T) {
	cfg := benchConfig()
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

// TestEngineResumeAcrossLeaseBoundary: with LeaseSize 1 the interrupted
// worker crosses a lease boundary between its two executions — flushing its
// local tallies, publishing its chooser position, and re-acquiring from the
// cap pool — before the cap stops it. The checkpoint written at that point
// must let a resumed run (different worker count, different lease size)
// reproduce the identical verdict and canonical counterexample of an
// uninterrupted run, even though the throttled publish means the slot held a
// position at most one lease old.
func TestEngineResumeAcrossLeaseBoundary(t *testing.T) {
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
	interrupted := cfg
	interrupted.MaxExecutions = 2 // below the violation at execution 3
	m, err := ManifestFor(&interrupted, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Engine{LeaseSize: 1, Store: st}).Check(context.Background(), with(&interrupted, run.WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Complete || out.Executions != interrupted.MaxExecutions {
		t.Fatalf("interrupted run: complete=%v executions=%d, want capped at exactly %d",
			out.Complete, out.Executions, interrupted.MaxExecutions)
	}
	if !out.OK() {
		t.Fatal("interrupted run already found the violation; lower the cap")
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&Engine{LeaseSize: 8, Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(2)))
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

// TestReplayAllocsPerExecution pins the hot-path allocation budget: with the
// arena, the pooled execState, and the interned dedup store, a replay
// allocates near nothing — the ~84 heap objects per leaf the old runOnce
// built (bank, closures, channels, trace log, schedule, goroutines) are what
// made parallel workers fight the allocator instead of exploring. It
// measures the whole engine with one worker over the 4096-execution slab,
// enough executions to amortize the engine's start-up.
func TestReplayAllocsPerExecution(t *testing.T) {
	cfg := benchConfig()
	if _, err := check(&cfg); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		out, err := check(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Executions != cfg.MaxExecutions {
			t.Fatalf("executions = %d, want %d", out.Executions, cfg.MaxExecutions)
		}
	})
	perExec := allocs / float64(cfg.MaxExecutions)
	t.Logf("allocs/op = %.0f over %d executions = %.3f allocs/execution", allocs, cfg.MaxExecutions, perExec)
	if perExec > 2 {
		t.Errorf("allocs per execution = %.2f, want <= 2 (per-leaf allocations crept back into the replay path)", perExec)
	}
}

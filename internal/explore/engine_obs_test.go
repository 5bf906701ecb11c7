package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
)

// sumWorkerCounters adds up the per-worker counters with the given suffix
// (e.g. ".executions") in a metric snapshot.
func sumWorkerCounters(s obs.Snapshot, suffix string) int64 {
	var sum int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "explore.worker.") && strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return sum
}

// TestEngineMetricsWorkerSumInvariant: the per-worker execution counters
// plus the restored count must sum to the reported Executions — the
// invariant the report schema validates — including with dedup on, where
// pruned replays release their claims on both the total and the worker
// counter.
func TestEngineMetricsWorkerSumInvariant(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	for name, dedupOn := range map[string]bool{"plain": false, "dedup": true} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			eng := &Engine{}
			out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(4), dedupIf(dedupOn), run.WithMetrics(reg)))
			if err != nil {
				t.Fatal(err)
			}
			s := reg.Snapshot()
			if got := s.Counters["explore.executions"]; got != int64(out.Executions) {
				t.Errorf("explore.executions = %d, Outcome.Executions = %d", got, out.Executions)
			}
			workerSum := sumWorkerCounters(s, ".executions") + s.Counters["explore.executions.restored"]
			if workerSum != int64(out.Executions) {
				t.Errorf("per-worker executions sum to %d, want %d", workerSum, out.Executions)
			}
			if got := s.Counters["explore.frontier.donations"]; got != out.Donations {
				t.Errorf("donations counter = %d, Outcome.Donations = %d", got, out.Donations)
			}
			if got := s.Counters["explore.frontier.steals"]; got != out.Steals {
				t.Errorf("steals counter = %d, Outcome.Steals = %d", got, out.Steals)
			}
			if stealSum := sumWorkerCounters(s, ".steals"); stealSum != out.Steals {
				t.Errorf("per-worker steals sum to %d, want %d", stealSum, out.Steals)
			}
			if out.Steals == 0 {
				t.Error("no steals recorded; even the root task is claimed from the frontier")
			}
			if s.Gauges["explore.workers"] != 4 {
				t.Errorf("explore.workers gauge = %d, want 4", s.Gauges["explore.workers"])
			}
			if h, ok := s.Histograms["explore.frontier.depth"]; !ok || h.Count == 0 {
				t.Error("frontier depth histogram missing or empty")
			}
			if dedupOn {
				if s.Counters["explore.dedup.prunes"] == 0 {
					t.Error("dedup run recorded no prunes")
				}
				if s.Gauges["dedup.states"] == 0 {
					t.Error("dedup.states gauge not registered or zero")
				}
			}
		})
	}
}

// TestEngineSharedRegistryRunScoped: a registry may outlive one run (the
// harness points a whole experiment sweep at the same one). The registry
// must read cumulatively, while each run's cap, Outcome, and checkpoints
// stay run-scoped — the first run's executions must not count against the
// second run's cap.
func TestEngineSharedRegistryRunScoped(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	ref, err := (&Engine{}).Check(context.Background(), with(&cfg, run.WithWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	eng := &Engine{}
	first, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(2), run.WithMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	// The second run would be capped immediately if the first run's
	// executions leaked into its cap accounting.
	capped := cfg
	capped.MaxExecutions = ref.Executions
	second, err := eng.Check(context.Background(), with(&capped, run.WithWorkers(2), run.WithMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	if first.Executions != ref.Executions || second.Executions != ref.Executions {
		t.Errorf("shared-registry executions = %d then %d, want %d both times",
			first.Executions, second.Executions, ref.Executions)
	}
	if !second.Complete {
		t.Error("second run reported incomplete: prior run leaked into its cap")
	}
	if got := reg.Snapshot().Counters["explore.executions"]; got != int64(2*ref.Executions) {
		t.Errorf("cumulative registry counter = %d, want %d", got, 2*ref.Executions)
	}
}

// TestEngineEventLog: a run with an event log emits a parseable JSONL
// stream framed by run.start and run.done, and a violating run records
// violation.found events.
func TestEngineEventLog(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.SingleCAS{},
		Inputs:          inputs(3),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
	}
	var buf bytes.Buffer
	log := obs.NewLog(&buf, obs.Debug)
	eng := &Engine{}
	out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(4), run.WithEvents(log)))
	if err != nil {
		t.Fatal(err)
	}
	if out.OK() {
		t.Fatal("expected a violation")
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var types []string
	var lastT int64 = -1
	for i, line := range lines {
		var e struct {
			T      int64          `json:"t_ns"`
			Level  string         `json:"level"`
			Type   string         `json:"type"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if e.T < lastT {
			t.Errorf("line %d: timestamp %d before previous %d", i, e.T, lastT)
		}
		lastT = e.T
		types = append(types, e.Type)
	}
	if types[0] != "run.start" {
		t.Errorf("first event = %q, want run.start", types[0])
	}
	if types[len(types)-1] != "run.done" {
		t.Errorf("last event = %q, want run.done", types[len(types)-1])
	}
	counts := log.Counts()
	if counts["run.start"] != 1 || counts["run.done"] != 1 {
		t.Errorf("lifecycle counts = %v", counts)
	}
	if counts["violation.found"] == 0 {
		t.Error("violating run logged no violation.found events")
	}
}

// TestEngineMetricsResumeRestored: after a capped run resumes, the fresh
// registry accounts the checkpoint's executions under
// explore.executions.restored, keeping the worker-sum invariant across
// process boundaries.
func TestEngineMetricsResumeRestored(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
	}
	dir := filepath.Join(t.TempDir(), "run")
	m, err := ManifestFor(&cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}

	capped := cfg
	capped.MaxExecutions = 500
	first, err := (&Engine{Store: st}).Check(context.Background(), with(&capped, run.WithWorkers(4)))
	if err != nil {
		t.Fatal(err)
	}
	if first.Complete {
		t.Fatalf("capped run completed in %d executions; cap too high for this test", first.Executions)
	}

	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	log := obs.NewLog(&buf, obs.Debug)
	out, err := (&Engine{Store: st}).Check(context.Background(), with(&cfg, run.WithWorkers(4), run.WithMetrics(reg), run.WithEvents(log)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("resumed run incomplete after %d executions", out.Executions)
	}
	s := reg.Snapshot()
	restored := s.Counters["explore.executions.restored"]
	if restored == 0 {
		t.Error("resume recorded no restored executions")
	}
	if sum := sumWorkerCounters(s, ".executions") + restored; sum != int64(out.Executions) {
		t.Errorf("worker sum + restored = %d, want %d", sum, out.Executions)
	}
	if log.Counts()["checkpoint.restore"] != 1 {
		t.Errorf("checkpoint.restore events = %d, want 1", log.Counts()["checkpoint.restore"])
	}
}

// TestEngineProgressDepthQuantiles: progress reports carry frontier-depth
// quantiles from the depth histogram, and the quantiles are ordered. The
// histogram only fills once workers donate subtrees, so the depth fields
// may legitimately be zero early in a run — the invariant is ordering and
// non-negativity, plus that reports flow at all.
func TestEngineProgressDepthQuantiles(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
		// The goroutine form keeps this sweep slow enough for the 1ms
		// progress ticker to fire before the run completes.
		Exec: run.ExecInterpreted,
	}
	var (
		mu      sync.Mutex
		reports []Progress
	)
	eng := &Engine{
		ProgressEvery: time.Millisecond,
		Progress: func(p Progress) {
			mu.Lock()
			reports = append(reports, p)
			mu.Unlock()
		},
	}
	out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete {
		t.Fatalf("exploration did not complete: %+v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("no progress reports delivered")
	}
	sawDepth := false
	for _, p := range reports {
		if p.DepthP50 < 0 || p.DepthP99 < p.DepthP50 {
			t.Errorf("quantiles disordered: p50=%v p99=%v", p.DepthP50, p.DepthP99)
		}
		if p.DepthP99 > 0 {
			sawDepth = true
		}
	}
	if out.Donations > 0 && !sawDepth {
		t.Logf("donations=%d but no report carried depth quantiles (timing)", out.Donations)
	}
}

package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/run"
	"repro/internal/store"
)

// TestEngineFleetSnapshotsMergeMatchesSingleProcess: two snapshot-publishing
// ledger participants sweep one tree; the fleet-merged worker counters, the
// ledger's merged result count, and the fleet view's totals must all equal
// the single-process execution count — the fleet dashboard never disagrees
// with the verdict.
func TestEngineFleetSnapshotsMergeMatchesSingleProcess(t *testing.T) {
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

	runDir := t.TempDir()
	// A generous TTL: renewals at TTL/3 never miss in-process, so no claim
	// is fenced and the worker counters tally each execution exactly once.
	const ttl = time.Second
	regs := make([]*obs.Registry, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		owner := string(rune('a' + i))
		l, _, err := ledger.Join(runDir, "worker-"+owner, ttl)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		regs[i] = obs.NewRegistry()
		wg.Add(1)
		go func(i int, l *ledger.Ledger) {
			defer wg.Done()
			eng := &Engine{Ledger: l, FleetSnapshots: true}
			_, errs[i] = eng.Check(context.Background(), with(&cfg, run.WithWorkers(2), run.WithMetrics(regs[i])))
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	out, _, err := FinalizeLedger(&cfg, runDir, false)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if out.Executions != seq.Executions {
		t.Fatalf("merged executions = %d, want %d", out.Executions, seq.Executions)
	}

	// Both workers published a final snapshot on exit, claim or no claim.
	paths, err := store.ListWorkerSnapshots(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("snapshots = %v, want 2", paths)
	}
	var metrics []obs.Snapshot
	for _, p := range paths {
		ws, err := obs.LoadSnapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if ws.LedgerEpoch == 0 || ws.PID == 0 {
			t.Errorf("snapshot %s: epoch %d pid %d", ws.Worker, ws.LedgerEpoch, ws.PID)
		}
		metrics = append(metrics, ws.Metrics)
	}
	merged := obs.MergeSnapshots(metrics...)
	if got := merged.Counters["explore.executions"]; got != int64(seq.Executions) {
		t.Errorf("fleet-merged executions = %d, want %d (single process)", got, seq.Executions)
	}

	view, err := fleet.Load(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Workers) != 2 {
		t.Fatalf("fleet view workers = %+v", view.Workers)
	}
	if got := view.Merged.Counters["explore.executions"]; got != int64(seq.Executions) {
		t.Errorf("view merged executions = %d, want %d", got, seq.Executions)
	}
	if view.Ledger == nil || view.Ledger.MergedExecutions != int64(seq.Executions) {
		t.Errorf("view ledger status = %+v, want merged executions %d", view.Ledger, seq.Executions)
	}
}

// TestEngineFleetClaimEventsCorrelate: a participant's event log carries the
// claim lifecycle keyed by (claim id, epoch, worker, ledger epoch) — every
// acquire is settled by exactly one release with a disposition, and the
// "claim" trace spans carry the same correlation keys via Annotate.
func TestEngineFleetClaimEventsCorrelate(t *testing.T) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: 1,
	}
	runDir := t.TempDir()
	l, _, err := ledger.Join(runDir, "w0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ev := obs.NewLog(&buf, obs.Debug)
	tr, err := NewTracer(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Ledger: l, Tracer: tr, FleetSnapshots: true}
	if _, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(2), run.WithEvents(ev))); err != nil {
		t.Fatal(err)
	}
	if err := ev.Flush(); err != nil {
		t.Fatal(err)
	}

	type event struct {
		Type   string         `json:"type"`
		Fields map[string]any `json:"fields"`
	}
	acquired := map[string]bool{} // "claim@epoch" -> settled
	var publishes int
	key := func(f map[string]any) string {
		return f["claim"].(string) + "@" + fmt.Sprint(f["epoch"])
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		switch e.Type {
		case "claim.acquire":
			id := key(e.Fields)
			if e.Fields["worker"] != "w0" || e.Fields["ledger_epoch"].(float64) != float64(l.Epoch()) {
				t.Errorf("acquire keys: %v", e.Fields)
			}
			if _, dup := acquired[id]; dup {
				t.Errorf("claim %s acquired twice by one process", id)
			}
			acquired[id] = false
		case "claim.release":
			id := key(e.Fields)
			settled, ok := acquired[id]
			if !ok || settled {
				t.Errorf("release without open acquire: %v", e.Fields)
			}
			acquired[id] = true
			if d := e.Fields["disposition"]; d == "published" {
				publishes++
			} else if d != "abandoned" && d != "fenced" {
				t.Errorf("disposition = %v", d)
			}
		}
	}
	if len(acquired) == 0 || publishes == 0 {
		t.Fatalf("claims acquired = %d, published = %d; want both > 0", len(acquired), publishes)
	}
	for id, settled := range acquired {
		if !settled {
			t.Errorf("claim %s never released", id)
		}
	}

	var claimSpans int
	for _, s := range tr.Recorder().Spans() {
		if s.Args["worker"] != "w0" || s.Args["ledger_epoch"] != l.Epoch() {
			t.Errorf("span %s lacks fleet identity: %v", s.Name, s.Args)
		}
		if s.Name == "claim" {
			claimSpans++
			if s.Cat != "ledger" || s.Args["claim"] == nil || s.Args["disposition"] == nil {
				t.Errorf("claim span args: %+v", s)
			}
		}
	}
	if claimSpans != len(acquired) {
		t.Errorf("claim spans = %d, want one per claim (%d)", claimSpans, len(acquired))
	}
}

// Fleet-observability CLI tests: a multi-process ledger run watched through
// `modelcheck -fleet-status` — a SIGSTOPped worker must show up stale within
// one lease TTL, its reaped claim must be traceable across the survivors'
// event logs at the bumped epoch, and the fleet view's totals must agree
// with the finalize merge.
package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

type cliEvent struct {
	Level  string         `json:"level"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields"`
}

func readEvents(t *testing.T, path string) []cliEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []cliEvent
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var e cliEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	return evs
}

// TestCLIFleetStatusStaleWorkerAndCorrelatedReclaim: a three-worker fleet in
// which the ledger's creator is SIGSTOPped mid-claim. Within one TTL of the
// freeze, -fleet-status must report it STALE with a worker-stale anomaly;
// the survivors must reap its claim and re-enqueue the subtree at epoch+1 —
// visible as a ledger.reclaim naming the victim followed by a claim.acquire
// of the same subtree id at the bumped epoch in the survivors' event logs —
// and the drained fleet's merged count must equal the finalize merge's.
func TestCLIFleetStatusStaleWorkerAndCorrelatedReclaim(t *testing.T) {
	ref, code := runCLI(t, "modelcheck", slowArgs...)
	if code != 0 || !strings.Contains(ref, "VERIFIED") {
		t.Fatalf("reference run: exit %d:\n%s", code, ref)
	}
	refExecs := cliExecutions(t, ref)

	dir := filepath.Join(t.TempDir(), "run")
	evDir := t.TempDir()
	const ttl = 500 * time.Millisecond
	// The victim creates the ledger on the slow tree, so the freeze lands
	// while its root claim is live and mostly unexplored.
	victim := startWorker(t, append(append([]string{}, slowArgs...),
		"-ledger", dir, "-worker-id", "victim", "-lease-ttl", "500ms")...)
	time.Sleep(200 * time.Millisecond)
	if err := victim.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP: %v", err)
	}
	// One TTL (plus scheduling slack) after the freeze the victim's last
	// published heartbeat is stale.
	time.Sleep(ttl + 200*time.Millisecond)

	out, code := runCLI(t, "modelcheck", "-fleet-status", dir)
	if code != 0 {
		t.Fatalf("fleet-status: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "victim") || !strings.Contains(out, "STALE") {
		t.Errorf("stopped worker not reported stale:\n%s", out)
	}
	if !strings.Contains(out, "[worker-stale]") {
		t.Errorf("worker-stale anomaly missing:\n%s", out)
	}

	evA := filepath.Join(evDir, "a.jsonl")
	evB := filepath.Join(evDir, "b.jsonl")
	a := startWorker(t, "-ledger", dir, "-worker-id", "survivor-a", "-events", evA, "-max", slowMax)
	b := startWorker(t, "-ledger", dir, "-worker-id", "survivor-b", "-events", evB, "-max", slowMax)
	waitWorker(t, "survivor-a", a)
	waitWorker(t, "survivor-b", b)

	// The sweep is drained: the fleet view's merged ledger count must equal
	// what the finalize merge reports, and the machine-readable view must
	// list all three workers.
	out, code = runCLI(t, "modelcheck", "-fleet-status", dir, "-json")
	if code != 0 {
		t.Fatalf("fleet-status -json: exit %d:\n%s", code, out)
	}
	var view struct {
		Schema  string `json:"schema"`
		Workers []struct {
			Worker string `json:"worker"`
			Stale  bool   `json:"stale"`
		} `json:"workers"`
		Ledger struct {
			MergedExecutions int64 `json:"merged_executions"`
			Drained          bool  `json:"drained"`
		} `json:"ledger"`
	}
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatalf("fleet-status -json is not a view: %v\n%s", err, out)
	}
	if view.Schema != "modelcheck-fleet-report/v1" || len(view.Workers) != 3 {
		t.Errorf("view schema %q with %d workers, want 3", view.Schema, len(view.Workers))
	}
	stale := map[string]bool{}
	for _, w := range view.Workers {
		stale[w.Worker] = w.Stale
	}
	if !stale["victim"] || stale["survivor-a"] || stale["survivor-b"] {
		t.Errorf("staleness = %v, want only the victim stale", stale)
	}
	if !view.Ledger.Drained || view.Ledger.MergedExecutions != int64(refExecs) {
		t.Errorf("view ledger = %+v, want drained with %d merged executions", view.Ledger, refExecs)
	}

	// The victim was frozen mid-run, so it dies of the kill, not of a
	// finished sweep.
	killMidRun(t, victim)

	// Correlated lifecycle across processes: some survivor reaped the
	// victim's claim (ledger.reclaim names the dead owner, id, epoch) and
	// some survivor re-acquired the same subtree at epoch+1.
	events := append(readEvents(t, evA), readEvents(t, evB)...)
	type reap struct {
		id    string
		epoch float64
	}
	var reaps []reap
	for _, e := range events {
		if e.Type == "ledger.reclaim" && e.Fields["dead_owner"] == "victim" {
			reaps = append(reaps, reap{e.Fields["id"].(string), e.Fields["epoch"].(float64)})
		}
	}
	if len(reaps) == 0 {
		t.Fatal("no survivor reaped the victim's claim (ledger.reclaim with dead_owner=victim)")
	}
	for _, r := range reaps {
		found := false
		for _, e := range events {
			if e.Type == "claim.acquire" && e.Fields["claim"] == r.id &&
				e.Fields["epoch"].(float64) == r.epoch+1 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("reaped claim %s@e%v never re-acquired at epoch %v by a survivor",
				r.id, r.epoch, r.epoch+1)
		}
	}

	// The finalize merge agrees with the fleet view and embeds the fleet
	// section into its machine-readable report.
	report := filepath.Join(evDir, "report.json")
	out, code = runCLI(t, "modelcheck", "-ledger-finalize", dir, "-report", report)
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("finalize: exit %d:\n%s", code, out)
	}
	if got := cliExecutions(t, out); got != refExecs {
		t.Errorf("finalize executions = %d, fleet view and reference say %d", got, refExecs)
	}
	rep, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "modelcheck-fleet-report/v1") {
		t.Errorf("finalize report embeds no fleet section:\n%.400s", rep)
	}
}

// TestCLIFleetStatusRefusesNonLedgerDir: pointing -fleet-status at a
// directory that never hosted a ledger must fail loudly, not render an
// empty fleet.
func TestCLIFleetStatusRefusesNonLedgerDir(t *testing.T) {
	out, code := runCLI(t, "modelcheck", "-fleet-status", t.TempDir())
	if code != 2 || !strings.Contains(out, "ledger") {
		t.Errorf("fleet-status on a bare directory: exit %d, want 2:\n%s", code, out)
	}
}

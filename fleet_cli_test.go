// Fleet-observability CLI tests: a multi-process ledger run watched through
// `modelcheck -fleet-status` — a SIGSTOPped worker must show up stale within
// one lease TTL, its reaped claim must be traceable across the survivors'
// event logs at the bumped epoch, and the fleet view's totals must agree
// with the finalize merge.
package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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
	freezeMidClaim(t, victim, dir, "victim")
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

// freezeMidClaim SIGSTOPs a ledger worker while it holds live claims only:
// at least one lease, and no lease of its whose work was published (a
// result at the lease's epoch or above) or handed back (a task at that
// epoch or above). Survivors reap such a lease and re-enqueue its subtree at
// epoch+1, which is what the test asserts on. A freeze between two claims
// (no lease to reap) or between a publish and the lease's removal (reaped
// but never re-enqueued) misses that state; the worker then runs on for a
// moment and is frozen again, a bounded number of times.
func freezeMidClaim(t *testing.T, worker *exec.Cmd, dir, owner string) {
	t.Helper()
	const tries = 20
	var state string
	for try := 0; try < tries; try++ {
		if try > 0 {
			if err := worker.Process.Signal(syscall.SIGCONT); err != nil {
				t.Fatalf("SIGCONT: %v", err)
			}
			time.Sleep(time.Duration(10+5*try) * time.Millisecond)
		}
		if err := worker.Process.Signal(syscall.SIGSTOP); err != nil {
			t.Fatalf("SIGSTOP: %v", err)
		}
		// The stop is delivered asynchronously; let it land before the
		// run directory is read.
		time.Sleep(20 * time.Millisecond)
		var ok bool
		if ok, state = liveClaimsOnly(t, dir, owner); ok {
			if try > 0 {
				t.Logf("froze %s holding only live claims after %d retries", owner, try)
			}
			return
		}
	}
	t.Fatalf("precondition: %s never froze holding only live, unpublished claims in %d tries (last: %s)", owner, tries, state)
}

// liveClaimsOnly reports whether owner holds at least one lease in the
// ledger under dir and every lease it holds is live and unpublished, with a
// description of what it found.
func liveClaimsOnly(t *testing.T, dir, owner string) (bool, string) {
	t.Helper()
	led := filepath.Join(dir, "ledger")
	type record struct {
		ID    string `json:"id"`
		Epoch int64  `json:"epoch"`
		Owner string `json:"owner"`
	}
	read := func(path string) (record, bool) {
		var r record
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &r) != nil {
			return record{}, false
		}
		return r, true
	}
	leases, err := os.ReadDir(filepath.Join(led, "leases"))
	if err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadDir(filepath.Join(led, "results"))
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, e := range leases {
		ls, ok := read(filepath.Join(led, "leases", e.Name()))
		if !ok || ls.Owner != owner || e.Name() != "lease-"+ls.ID+".json" {
			continue
		}
		held++
		for _, r := range results {
			rest, ok := strings.CutPrefix(r.Name(), "result-"+ls.ID+"-e")
			ep, err := strconv.ParseInt(strings.TrimSuffix(rest, ".json"), 10, 64)
			if ok && err == nil && ep >= ls.Epoch {
				return false, fmt.Sprintf("lease %s@e%d already published as %s", ls.ID, ls.Epoch, r.Name())
			}
		}
		if task, ok := read(filepath.Join(led, "tasks", "task-"+ls.ID+".json")); ok && task.Epoch >= ls.Epoch {
			return false, fmt.Sprintf("lease %s@e%d handed back as a task at epoch %d", ls.ID, ls.Epoch, task.Epoch)
		}
	}
	if held == 0 {
		return false, fmt.Sprintf("%s holds no lease", owner)
	}
	return true, fmt.Sprintf("%s holds %d live leases", owner, held)
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

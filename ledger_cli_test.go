// Distributed-exploration CLI tests: several modelcheck processes cooperate
// through one -ledger run directory, one of them is SIGKILLed while holding
// a lease, and the merged verdict must match the single-process reference
// exactly — same execution count, same violation, same lex-least schedule.
package repro_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// startWorker launches a modelcheck ledger participant in the background.
func startWorker(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "modelcheck"), args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// waitWorker reaps a background participant; ledger workers exit 0 when their
// published claims hold no counterexample and 1 when they do — both are
// successful terminations.
func waitWorker(t *testing.T, name string, cmd *exec.Cmd) {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		return
	}
	if ee, ok := err.(*exec.ExitError); ok && (ee.ExitCode() == 0 || ee.ExitCode() == 1) {
		return
	}
	t.Fatalf("worker %s: %v", name, err)
}

// TestCLILedgerKilledWorkerVerifiedMatchesSingle: a three-process ledger run
// in which the first worker — the one that created the ledger and claimed the
// root subtree — is SIGKILLed mid-lease. The survivors must reclaim its
// forfeited subtree after TTL expiry and drive the sweep to the exact
// single-process verdict: VERIFIED with an identical execution count.
func TestCLILedgerKilledWorkerVerifiedMatchesSingle(t *testing.T) {
	ref, code := runCLI(t, "modelcheck", slowArgs...)
	if code != 0 || !strings.Contains(ref, "VERIFIED") {
		t.Fatalf("reference run: exit %d:\n%s", code, ref)
	}
	refExecs := cliExecutions(t, ref)

	dir := filepath.Join(t.TempDir(), "run")
	// The victim creates the ledger on the slow tree, so the kill lands
	// while its lease is live and most of the tree is still unexplored.
	victim := startWorker(t, append(append([]string{}, slowArgs...),
		"-ledger", dir, "-worker-id", "victim", "-lease-ttl", "400ms")...)
	time.Sleep(150 * time.Millisecond)
	killMidRun(t, victim)

	a := startWorker(t, "-ledger", dir, "-worker-id", "survivor-a", "-max", slowMax)
	b := startWorker(t, "-ledger", dir, "-worker-id", "survivor-b", "-max", slowMax)
	waitWorker(t, "survivor-a", a)
	waitWorker(t, "survivor-b", b)

	out, code := runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 0 {
		t.Fatalf("finalize: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VERIFIED") || !strings.Contains(out, "(complete: true)") {
		t.Errorf("merged verdict must be a complete VERIFIED:\n%s", out)
	}
	if got := cliExecutions(t, out); got != refExecs {
		t.Errorf("merged executions = %d, single-process reference = %d", got, refExecs)
	}
}

// TestCLILedgerViolationCanonicalCounterexample: a two-process ledger run
// over a violating tree must finalize to the identical counterexample — same
// violation, same lex-least schedule — as the uninterrupted single-process
// search, whichever process happened to find it.
func TestCLILedgerViolationCanonicalCounterexample(t *testing.T) {
	args := []string{"-proto", "figure3", "-f", "1", "-t", "1", "-n", "3"}
	ref, code := runCLI(t, "modelcheck", args...)
	if code != 1 {
		t.Fatalf("reference search: exit %d, want 1:\n%s", code, ref)
	}
	wantSchedule := regexp.MustCompile(`schedule: \[[0-9 ]+\]`).FindString(ref)
	if wantSchedule == "" {
		t.Fatalf("reference output has no schedule line:\n%s", ref)
	}

	dir := filepath.Join(t.TempDir(), "run")
	// Both workers carry the full flags: two racing creators resolve to one
	// manifest either way, but a flagless joiner could race the creator and
	// lose with its defaults (flagless joining is covered by the
	// killed-worker test, where the manifest exists before the survivors).
	a := startWorker(t, append(append([]string{}, args...),
		"-ledger", dir, "-worker-id", "a")...)
	b := startWorker(t, append(append([]string{}, args...),
		"-ledger", dir, "-worker-id", "b")...)
	waitWorker(t, "a", a)
	waitWorker(t, "b", b)

	out, code := runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 1 {
		t.Fatalf("finalize: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION (consistency)") {
		t.Errorf("merged verdict missing the violation:\n%s", out)
	}
	if !strings.Contains(out, wantSchedule) {
		t.Errorf("merged counterexample differs from the single-process one:\nwant %s\ngot:\n%s",
			wantSchedule, out)
	}
}

// TestCLILedgerFinalizeIncomplete: finalizing while a subtree is still
// pending (here: the only worker capped out and abandoned its claim) must
// refuse with the incompleteness report and exit 2.
func TestCLILedgerFinalizeIncomplete(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2",
		"-ledger", dir, "-worker-id", "capped", "-max", "2")
	if code != 0 {
		t.Fatalf("capped worker: exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "modelcheck", "-ledger-finalize", dir)
	if code != 2 || !strings.Contains(out, "incomplete") {
		t.Errorf("incomplete finalize: exit %d, want 2 with an incompleteness report:\n%s", code, out)
	}
}

// TestCLIRepeatedCreationFlagsAreNoContradiction: the manifest records the
// settings in canonical form (protocol name, resolved faulty count, the f
// and t the protocol uses), so a joiner or a resume that repeats the
// creating command line — aliases, -faulty -1, an ignored -f — must be
// accepted, not refused as contradicting it.
func TestCLIRepeatedCreationFlagsAreNoContradiction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	args := []string{"-proto", "staged", "-f", "1", "-t", "1", "-n", "2", "-faulty", "-1", "-ledger", dir}
	for _, id := range []string{"a", "b"} {
		out, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-worker-id", id)...)
		if code != 0 {
			t.Fatalf("ledger worker %s: exit %d, want 0:\n%s", id, code, out)
		}
	}
	if out, code := runCLI(t, "modelcheck", "-ledger-finalize", dir, "-proto", "staged", "-faulty", "-1"); code != 0 ||
		!strings.Contains(out, "VERIFIED") {
		t.Errorf("finalize: exit %d, want 0 with VERIFIED:\n%s", code, out)
	}

	dir = filepath.Join(t.TempDir(), "run")
	args = []string{"-proto", "single", "-f", "3", "-t", "2", "-n", "2", "-unbounded", "-faulty", "-1"}
	out, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-max", "2", "-checkpoint", dir)...)
	if code != 0 {
		t.Fatalf("capped run: exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "modelcheck", append(append([]string{}, args...), "-resume", dir)...)
	if code == 2 {
		t.Errorf("resume repeating the creation flags: exit 2:\n%s", out)
	}
}

// TestCLILedgerRefusesContradictionsAndCombos: a ledger run directory joins
// only with the settings it was created with, and the ledger flags are
// mutually exclusive with checkpoint/resume/finalize.
func TestCLILedgerRefusesContradictionsAndCombos(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2",
		"-ledger", dir, "-worker-id", "creator")
	if code != 0 {
		t.Fatalf("creator: exit %d:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger", dir, "-proto", "figure1"); code != 2 ||
		!strings.Contains(out, "contradicts") {
		t.Errorf("contradicting join: exit %d, want 2 with a contradiction message:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger", dir, "-checkpoint", dir); code != 2 {
		t.Errorf("-ledger with -checkpoint: exit %d, want 2:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger-finalize", dir, "-ledger", dir); code != 2 {
		t.Errorf("-ledger-finalize with -ledger: exit %d, want 2:\n%s", code, out)
	}
	if out, code = runCLI(t, "modelcheck", "-ledger-finalize", filepath.Join(t.TempDir(), "nope")); code != 2 {
		t.Errorf("finalize without a run: exit %d, want 2:\n%s", code, out)
	}
}

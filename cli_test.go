// CLI integration tests: every executable under cmd/ is built once and
// driven through representative invocations, verifying flags, output shape,
// and exit codes end to end.
package repro_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace/export"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the directory the CLI tests built their tools into.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir) //nolint:errcheck // a leftover temp dir fails no test
	}
	os.Exit(code)
}

// buildCLIs compiles all commands into a shared temp dir, once per test run.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration tests build binaries")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "repro-cli")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"faultsim", "modelcheck", "hierarchy", "experiments", "valency"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("%v\n%s", err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v", buildErr)
	}
	return binDir
}

// runCLI executes a built tool and returns stdout+stderr and the exit code.
func runCLI(t *testing.T, tool string, args ...string) (string, int) {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", tool, err)
	}
	return string(out), code
}

func TestCLIFaultsimTolerantRun(t *testing.T) {
	out, code := runCLI(t, "faultsim",
		"-proto", "figure2", "-f", "1", "-n", "3",
		"-fault", "overriding", "-rate", "1", "-unbounded")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "verdict  : OK") {
		t.Errorf("missing OK verdict:\n%s", out)
	}
	if !strings.Contains(out, "FAULT[overriding]") {
		t.Errorf("trace shows no faults:\n%s", out)
	}
}

func TestCLIFaultsimViolationExitCode(t *testing.T) {
	out, code := runCLI(t, "faultsim",
		"-proto", "figure1", "-n", "3", "-sched", "roundrobin",
		"-fault", "overriding", "-rate", "1", "-unbounded", "-quiet")
	if code != 1 {
		t.Fatalf("want exit 1 on violation, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION") {
		t.Errorf("missing violation verdict:\n%s", out)
	}
}

func TestCLIFaultsimDiagram(t *testing.T) {
	out, code := runCLI(t, "faultsim",
		"-proto", "figure1", "-n", "2", "-diagram")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "DECIDE") || !strings.Contains(out, "p0") {
		t.Errorf("diagram missing:\n%s", out)
	}
}

func TestCLIFaultsimBadFlags(t *testing.T) {
	if _, code := runCLI(t, "faultsim", "-proto", "nope"); code != 2 {
		t.Errorf("bad protocol: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "faultsim", "-sched", "nope"); code != 2 {
		t.Errorf("bad scheduler: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "faultsim", "-fault", "nope"); code != 2 {
		t.Errorf("bad fault kind: exit %d, want 2", code)
	}
}

func TestCLIModelcheckVerified(t *testing.T) {
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VERIFIED") {
		t.Errorf("missing VERIFIED:\n%s", out)
	}
	if !strings.Contains(out, "4356") {
		t.Errorf("unexpected execution count:\n%s", out)
	}
}

func TestCLIModelcheckViolation(t *testing.T) {
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "3", "-diagram")
	if code != 1 {
		t.Fatalf("want exit 1 on violation, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION (consistency)") {
		t.Errorf("missing violation:\n%s", out)
	}
	if !strings.Contains(out, "DECIDE") {
		t.Errorf("diagram missing:\n%s", out)
	}
}

func TestCLIModelcheckJSON(t *testing.T) {
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure1", "-n", "3", "-unbounded", "-json")
	if code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, `"kind": "cas"`) {
		t.Errorf("JSON trace missing:\n%s", out)
	}
}

// cliExecutions extracts the "executions  : N" count from modelcheck output.
func cliExecutions(t *testing.T, out string) int {
	t.Helper()
	m := regexp.MustCompile(`executions  : (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no executions line in output:\n%s", out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// slowArgs is the one run the CLI tests that interrupt a running process
// share: figure2 f=1 n=5 with one faulty object and unbounded faults,
// 1,814,400 executions to VERIFIED, about 0.7 s at two workers on a 2-vCPU
// host, so a kill or a freeze lands mid-run. Every other tree under the
// default cap finishes in under 0.2 s at one worker. No manifest records
// the cap, so every -resume passes slowMax.
var slowArgs = []string{"-proto", "figure2", "-f", "1", "-n", "5", "-faulty", "1", "-unbounded", "-max", slowMax}

const slowMax = "2000000"

// killMidRun SIGKILLs a running child and reaps it, failing the test unless
// the child died of the signal: Process.Kill returns nil on a child that
// already exited but was not yet waited for, so only Wait tells whether
// the interruption landed.
func killMidRun(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("wait after the kill = %v: the process finished before it", err)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Fatalf("wait after the kill = %v: the process did not die of the signal", err)
	}
}

// TestCLIModelcheckKilledResume: a modelcheck enumeration killed
// mid-exploration (SIGKILL — no graceful shutdown) must be continuable with
// -resume alone, reaching the same verdict as an uninterrupted run. The
// resume reconstructs the protocol flags from the run directory's manifest.
func TestCLIModelcheckKilledResume(t *testing.T) {
	ref, code := runCLI(t, "modelcheck", slowArgs...)
	if code != 0 || !strings.Contains(ref, "VERIFIED") {
		t.Fatalf("reference run: exit %d:\n%s", code, ref)
	}

	dir := filepath.Join(t.TempDir(), "run")
	bin := filepath.Join(buildCLIs(t), "modelcheck")
	cmd := exec.Command(bin, append(append([]string{}, slowArgs...),
		"-workers", "1", "-checkpoint", dir, "-checkpoint-every", "20ms")...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	killMidRun(t, cmd)
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	out, code := runCLI(t, "modelcheck", "-resume", dir, "-max", slowMax)
	if code != 0 {
		t.Fatalf("resume: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VERIFIED") {
		t.Errorf("resumed run must reach the reference verdict:\n%s", out)
	}
	if !strings.Contains(out, "(complete: true)") {
		t.Errorf("resumed run did not complete the enumeration:\n%s", out)
	}
	if got, want := cliExecutions(t, out), cliExecutions(t, ref); got != want {
		t.Errorf("resumed executions = %d, uninterrupted run = %d", got, want)
	}
}

// TestCLIModelcheckResumeCounterexample: interrupting a counterexample
// search (here deterministically, via the execution cap, which stops before
// the violation) and resuming with a raised cap must report the IDENTICAL
// violation — same verdict, same lex-least schedule — as the uninterrupted
// search.
func TestCLIModelcheckResumeCounterexample(t *testing.T) {
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
	out, code := runCLI(t, "modelcheck",
		append(append([]string{}, args...), "-max", "2", "-checkpoint", dir)...)
	if code != 0 || !strings.Contains(out, "NO VIOLATION FOUND (cap reached") {
		t.Fatalf("capped run: exit %d:\n%s", code, out)
	}

	out, code = runCLI(t, "modelcheck", "-resume", dir, "-max", "200000")
	if code != 1 {
		t.Fatalf("resume: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION (consistency)") {
		t.Errorf("resumed search missing the violation:\n%s", out)
	}
	if !strings.Contains(out, wantSchedule) {
		t.Errorf("resumed counterexample differs from the uninterrupted one:\nwant %s\ngot:\n%s",
			wantSchedule, out)
	}
}

// TestCLIModelcheckResumeMismatch: a run directory resumes only with the
// settings it was created with; contradicting flags must be refused.
func TestCLIModelcheckResumeMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-checkpoint", dir)
	if code != 0 {
		t.Fatalf("checkpoint run: exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "modelcheck", "-resume", dir, "-n", "3")
	if code != 2 || !strings.Contains(out, "contradicts") {
		t.Errorf("mismatched resume: exit %d, want 2 with a contradiction message:\n%s", code, out)
	}
}

// TestCLIRepeatedCreationFlagsAreNoContradiction: the manifest records the
// settings in canonical form (protocol name, resolved faulty count, the f
// and t the protocol uses), so a resume that repeats the creating command
// line — aliases, -faulty -1, an ignored -f — must be accepted, not refused
// as contradicting it.
func TestCLIRepeatedCreationFlagsAreNoContradiction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	args := []string{"-proto", "single", "-f", "3", "-t", "2", "-n", "2", "-unbounded", "-faulty", "-1"}
	out, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-max", "2", "-checkpoint", dir)...)
	if code != 0 {
		t.Fatalf("capped run: exit %d:\n%s", code, out)
	}
	out, code = runCLI(t, "modelcheck", append(append([]string{}, args...), "-resume", dir)...)
	if code == 2 {
		t.Errorf("resume repeating the creation flags: exit 2:\n%s", out)
	}
}

// TestCLIModelcheckRefusesLedgerRun: the multi-process work ledger is gone.
// A run directory it wrote holds a manifest and a ledger/ subdirectory but
// no checkpoint, so -resume must refuse it with one line naming the ledger
// (exit 2) rather than restart the sweep from the root; and the ledger's
// flags are unknown flags (exit 2).
func TestCLIModelcheckRefusesLedgerRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	out, code := runCLI(t, "modelcheck", "-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-max", "2", "-checkpoint", dir)
	if code != 0 {
		t.Fatalf("capped run: exit %d:\n%s", code, out)
	}
	// Rewrite the run directory into the shape a ledger run left behind.
	if err := os.Remove(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ledger", "tasks"), 0o755); err != nil {
		t.Fatal(err)
	}
	out, code = runCLI(t, "modelcheck", "-resume", dir)
	if code != 2 || !refusedInOneLine(out, "ledger") || strings.Contains(out, "executions") {
		t.Errorf("resume of a ledger run: exit %d, want 2 with one error line naming the ledger:\n%s", code, out)
	}
	for _, flag := range [][]string{
		{"-ledger", dir}, {"-ledger-finalize", dir}, {"-fleet-status", dir},
		{"-worker-id", "a"}, {"-lease-ttl", "1s"}, {"-fleet-snapshots=false"},
	} {
		if out, code := runCLI(t, "modelcheck", flag...); code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("modelcheck %v: exit %d, want 2 as an unknown flag:\n%s", flag, code, out)
		}
	}
}

// TestCLIModelcheckRefusesPathsNamingNoExecution: a choice path read from a
// file — a trace's path for -explain, a checkpoint's best path for -resume
// — that names no execution is refused with one line (exit 2), not a panic.
func TestCLIModelcheckRefusesPathsNamingNoExecution(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	args := []string{"-proto", "figure3", "-f", "1", "-t", "1", "-n", "3"}
	if out, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-trace", traceDir)...); code != 1 {
		t.Fatalf("violating run: exit %d, want 1:\n%s", code, out)
	}
	capture := filepath.Join(traceDir, "violation-000001.jsonl")
	data, err := os.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	edited := regexp.MustCompile(`"path":\[[0-9,]*\]`).ReplaceAll(data, []byte(`"path":[7]`))
	if string(edited) == string(data) {
		t.Fatal("the capture's meta line has no path to edit")
	}
	if err := os.WriteFile(capture, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "modelcheck", "-explain", capture)
	if code != 2 || !refusedInOneLine(out, "names no state") {
		t.Errorf("explain of path [7]: exit %d, want 2 with one error line:\n%s", code, out)
	}

	dir := filepath.Join(t.TempDir(), "run")
	if out, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-max", "2", "-checkpoint", dir)...); code != 0 {
		t.Fatalf("capped run: exit %d:\n%s", code, out)
	}
	ckpt := filepath.Join(dir, "checkpoint.json")
	var cp map[string]any
	data, err = os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	cp["best_path"] = []int{7}
	if data, err = json.Marshal(cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCLI(t, "modelcheck", "-resume", dir)
	if code != 2 || !refusedInOneLine(out, "names no state") {
		t.Errorf("resume with best path [7]: exit %d, want 2 with one error line:\n%s", code, out)
	}
}

// refusedInOneLine reports that a CLI's output holds exactly one error line,
// which contains want, and no panic.
func refusedInOneLine(out, want string) bool {
	var errs []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "modelcheck: ") {
			errs = append(errs, line)
		}
	}
	return len(errs) == 1 && strings.Contains(errs[0], want) && !strings.Contains(out, "panic")
}

// TestCLIModelcheckDedupReduction: -dedup must complete the same
// verification in measurably fewer executions and report its cache stats.
func TestCLIModelcheckDedupReduction(t *testing.T) {
	args := []string{"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-unbounded"}
	plain, code := runCLI(t, "modelcheck", args...)
	if code != 0 || !strings.Contains(plain, "VERIFIED") {
		t.Fatalf("plain run: exit %d:\n%s", code, plain)
	}
	dedup, code := runCLI(t, "modelcheck", append(append([]string{}, args...), "-dedup")...)
	if code != 0 || !strings.Contains(dedup, "VERIFIED") {
		t.Fatalf("dedup run: exit %d:\n%s", code, dedup)
	}
	if !strings.Contains(dedup, "dedup       :") {
		t.Errorf("dedup stats line missing:\n%s", dedup)
	}
	p, d := cliExecutions(t, plain), cliExecutions(t, dedup)
	if d >= p {
		t.Errorf("dedup explored %d executions, plain %d — no reduction", d, p)
	}
}

// TestCLIModelcheckDedupWithReduce turns both pruning levers on from the
// command line, on prove-pruned's configuration at one worker, where every
// counter is deterministic: the executions, the stored states, the set's
// size and the reducer's prunes.
func TestCLIModelcheckDedupWithReduce(t *testing.T) {
	out, code := runCLI(t, "modelcheck", "-proto", "figure2", "-f", "1", "-n", "5", "-faulty", "1",
		"-unbounded", "-dedup", "-reduce", "on", "-workers", "1")
	if code != 0 || !strings.Contains(out, "VERIFIED") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "executions  : 6525 (complete: true)") {
		t.Errorf("want 6525 executions, complete:\n%s", out)
	}
	m := regexp.MustCompile(`dedup       : 74373 states in (\d+\.\d) MiB, `).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("want a dedup line with 74373 states and the set's size:\n%s", out)
	}
	// 74,373 states at most 60 bytes each (TestDedupBytesPerState).
	if mib, _ := strconv.ParseFloat(m[1], 64); mib <= 0 || mib > 4.3 {
		t.Errorf("set size %s MiB, want (0, 4.3]:\n%s", m[1], out)
	}
	if !strings.Contains(out, "reduce      : on, 59133 sleep-blocked subtrees pruned") {
		t.Errorf("want 59133 reduce prunes:\n%s", out)
	}
}

func TestCLIHierarchy(t *testing.T) {
	out, code := runCLI(t, "hierarchy", "-maxf", "2", "-stress", "100", "-budget", "6000")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "all levels match the paper") {
		t.Errorf("hierarchy mismatch:\n%s", out)
	}
}

func TestCLIExperimentsList(t *testing.T) {
	out, code := runCLI(t, "experiments", "-list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, id := range []string{"E1", "E5", "E10"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestCLIExperimentsSingleQuick(t *testing.T) {
	out, code := runCLI(t, "experiments", "-run", "E5", "-quick")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "reproduced:") {
		t.Errorf("missing reproduction line:\n%s", out)
	}
}

func TestCLIExperimentsUnknownID(t *testing.T) {
	if _, code := runCLI(t, "experiments", "-run", "E99"); code != 2 {
		t.Errorf("unknown id: exit %d, want 2", code)
	}
}

func TestCLIValency(t *testing.T) {
	out, code := runCLI(t, "valency", "-proto", "figure1", "-n", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "multivalent") || !strings.Contains(out, "critical") {
		t.Errorf("valency output incomplete:\n%s", out)
	}
}

func TestCLIValencyPrefix(t *testing.T) {
	out, code := runCLI(t, "valency", "-proto", "figure1", "-n", "2", "-prefix", "0")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "10-valent") {
		t.Errorf("prefix state must be 10-valent:\n%s", out)
	}
}

// Every runnable example must build and complete successfully; each prints
// a success marker on its happy path.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example integration runs")
	}
	cases := map[string]string{
		"quickstart":    "agreement reached",
		"replicatedlog": "state machines identical",
		"energysim":     "across the whole voltage curve",
		"impossibility": "critical state found",
		"kvstore":       "replay determinism verified",
		"faultsweep":    "BROKEN",
	}
	for name, marker := range cases {
		name, marker := name, marker
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), marker) {
				t.Errorf("example %s output missing %q:\n%s", name, marker, out)
			}
		})
	}
}

// TestCLIModelcheckTraceAndExplain: -trace captures the violating execution
// as trace/v1 JSONL plus a Perfetto timeline, and -explain replays the
// capture, verifies it event for event, and narrates the fault.
func TestCLIModelcheckTraceAndExplain(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "3",
		"-trace", traceDir, "-trace-sample", "50")
	if code != 1 {
		t.Fatalf("want exit 1 on violation, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "trace       : 1 violation(s)") {
		t.Errorf("missing trace summary line:\n%s", out)
	}
	capture := filepath.Join(traceDir, "violation-000001.jsonl")
	if _, err := os.Stat(capture); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(traceDir, "violation-000001.perfetto.json")); err != nil {
		t.Fatal(err)
	}

	exp, code := runCLI(t, "modelcheck", "-explain", capture)
	if code != 0 {
		t.Fatalf("explain: exit %d:\n%s", code, exp)
	}
	for _, want := range []string{"verified", "consistency", "mis-fired", "tolerance bound"} {
		if !strings.Contains(exp, want) {
			t.Errorf("explanation lacks %q:\n%s", want, exp)
		}
	}
}

func TestCLIModelcheckExplainGarbage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("this is not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runCLI(t, "modelcheck", "-explain", bad); code != 2 {
		t.Errorf("garbage trace: exit %d, want 2", code)
	}
	if _, code := runCLI(t, "modelcheck", "-explain", filepath.Join(t.TempDir(), "missing.jsonl")); code != 2 {
		t.Errorf("missing trace: exit %d, want 2", code)
	}
}

// TestCLIModelcheckExplainRefusesDamagedTrace: a capture damaged as an
// arbitrary fault damages a file — cut before its end record, a digit of
// an event's index changed, an event line removed — is refused: a non-zero
// exit and one error line naming the file, no panic, nothing "verified".
func TestCLIModelcheckExplainRefusesDamagedTrace(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	if out, code := runCLI(t, "modelcheck", "-proto", "figure3", "-f", "1", "-t", "1", "-n", "3", "-trace", traceDir); code != 1 {
		t.Fatalf("violating run: exit %d, want 1:\n%s", code, out)
	}
	data, err := os.ReadFile(filepath.Join(traceDir, "violation-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 || !strings.HasPrefix(lines[3], `{"type":"event","event":{"i":2,`) {
		t.Fatalf("unexpected capture:\n%s", data)
	}
	damaged := map[string]string{
		"cut.jsonl":   strings.Join(lines[:len(lines)-2], ""),
		"digit.jsonl": strings.Join(lines[:3], "") + strings.Replace(lines[3], `"i":2,`, `"i":7,`, 1) + strings.Join(lines[4:], ""),
		"drop.jsonl":  strings.Join(lines[:3], "") + strings.Join(lines[4:], ""),
	}
	for name, content := range damaged {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := runCLI(t, "modelcheck", "-explain", path)
		if code == 0 || !refusedInOneLine(out, path) || strings.Contains(out, "verified") {
			t.Errorf("explain of %s: exit %d, want a refusal in one line naming the file:\n%s", name, code, out)
		}
	}
}

// TestCLIModelcheckInterruptFlushesCleanly: on SIGINT, modelcheck shuts the
// engine down gracefully and seals the event log and trace files — no
// truncated final record anywhere, exit code 0.
func TestCLIModelcheckInterruptFlushesCleanly(t *testing.T) {
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "traces")
	eventsFile := filepath.Join(dir, "events.jsonl")
	bin := filepath.Join(buildCLIs(t), "modelcheck")
	cmd := exec.Command(bin,
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-unbounded",
		"-workers", "1", "-events", eventsFile,
		"-trace", traceDir, "-trace-sample", "200")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal once the exploration is under way: run.start is an Info event,
	// written through to the log as soon as the engine emits it.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if data, _ := os.ReadFile(eventsFile); strings.Contains(string(data), `"run.start"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no run.start event within 30s")
		}
	}
	signaled := cmd.Process.Signal(os.Interrupt) == nil
	err := cmd.Wait()
	out := buf.String()
	if err != nil {
		t.Fatalf("interrupted run must exit 0: %v\n%s", err, out)
	}
	if signaled && !strings.Contains(out, "VERIFIED") &&
		!strings.Contains(out, "interrupted : signal received") {
		t.Errorf("no interrupt acknowledgement:\n%s", out)
	}

	// Every event-log line must be a complete JSON record.
	data, err := os.ReadFile(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("event log is empty")
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("event log line %d is not complete JSON: %q", i+1, line)
		}
	}

	// Every trace artifact must be sealed: trace/v1 files carry their end
	// record (export.ReadFile fails with ErrTruncated otherwise) and the
	// Perfetto files are valid JSON.
	traces, err := filepath.Glob(filepath.Join(traceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, f := range traces {
		if _, err := export.ReadFile(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if strings.Contains(f, "spans-") {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("want exactly one sealed spans file, got %d in %v", spans, traces)
	}
	perfettos, err := filepath.Glob(filepath.Join(traceDir, "*.perfetto.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range perfettos {
		data, err := os.ReadFile(f)
		if err != nil || !json.Valid(data) {
			t.Errorf("%s is not valid JSON (err %v)", f, err)
		}
	}
}

// TestCLIModelcheckProfileCapture: -profile-dir writes pprof CPU and heap
// profiles alongside the verdict.
func TestCLIModelcheckProfileCapture(t *testing.T) {
	profDir := filepath.Join(t.TempDir(), "prof")
	out, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2",
		"-profile-dir", profDir)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "profiles    : cpu.pprof and heap.pprof written") {
		t.Errorf("missing profiles line:\n%s", out)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(profDir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestCLIExperimentsTrace: the experiments driver forwards -trace to every
// exploration of the sweep; the shared directory accumulates sealed files.
func TestCLIExperimentsTrace(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	out, code := runCLI(t, "experiments", "-run", "E5", "-quick", "-trace", traceDir)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	traces, err := filepath.Glob(filepath.Join(traceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("experiments -trace wrote no trace files")
	}
	for _, f := range traces {
		if _, err := export.ReadFile(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// CLI integration tests: every executable under cmd/ is built once and
// driven through representative invocations, verifying flags, output shape,
// and exit codes end to end.
package repro_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace/export"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

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
				buildErr = err
				binDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v\n%s", buildErr, binDir)
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

// TestCLIModelcheckKilledResume: a modelcheck enumeration killed
// mid-exploration (SIGKILL — no graceful shutdown) must be continuable with
// -resume alone, reaching the same verdict as an uninterrupted run. The
// resume reconstructs the protocol flags from the run directory's manifest.
func TestCLIModelcheckKilledResume(t *testing.T) {
	ref, code := runCLI(t, "modelcheck",
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-unbounded")
	if code != 0 || !strings.Contains(ref, "VERIFIED") {
		t.Fatalf("reference run: exit %d:\n%s", code, ref)
	}

	dir := filepath.Join(t.TempDir(), "run")
	bin := filepath.Join(buildCLIs(t), "modelcheck")
	cmd := exec.Command(bin,
		"-proto", "figure3", "-f", "1", "-t", "1", "-n", "2", "-unbounded",
		"-workers", "1", "-checkpoint", dir, "-checkpoint-every", "20ms")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	killed := cmd.Process.Kill() == nil
	cmd.Wait()
	if !killed {
		t.Log("run finished before the kill; resuming a done store instead")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	out, code := runCLI(t, "modelcheck", "-resume", dir)
	if code != 0 {
		t.Fatalf("resume: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "VERIFIED") {
		t.Errorf("resumed run must reach the reference verdict:\n%s", out)
	}
	if !strings.Contains(out, "(complete: true)") {
		t.Errorf("resumed run did not complete the enumeration:\n%s", out)
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

package explore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/trace/export"
)

// violatingOpts is the smallest known-violating configuration: the staged
// protocol beyond its tolerance bound (f=1 faulty objects per stage with
// t=1 faults each, three processes).
func violatingOpts(extra ...run.Option) []run.Option {
	return append([]run.Option{
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(3),
		run.WithAllObjectsFaulty(1),
		run.WithFaultKind(fault.Overriding),
	}, extra...)
}

func globOne(t *testing.T, dir, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("glob %s: got %v, want exactly one match", pattern, matches)
	}
	return matches[0]
}

// TestTraceRoundTrip is the end-to-end contract of the tracing subsystem:
// an exploration with tracing on writes a violation capture whose recorded
// choice path, replayed under the configuration rebuilt from the file's own
// meta, reproduces the identical event sequence and the same verdict.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out, err := CheckWith(context.Background(),
		violatingOpts(run.WithTraceDir(dir, 0), run.WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("expected a violation from the over-budget staged config")
	}

	x, err := export.ReadFile(globOne(t, dir, "violation-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if x.Meta.Verdict != string(run.ViolationConsistency) {
		t.Errorf("captured verdict = %q, want consistency", x.Meta.Verdict)
	}

	// Rebuild the configuration from the trace header alone, as
	// `modelcheck -explain` does, and replay the recorded path.
	s, err := run.SettingsFromMeta(x.Meta.Run, x.Meta.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Replay(s, x.Meta.Path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := ce.Trace.Events()
	if len(replayed) != len(x.Events) {
		t.Fatalf("replay produced %d events, capture holds %d", len(replayed), len(x.Events))
	}
	for i := range replayed {
		if replayed[i] != x.Events[i] {
			t.Errorf("event %d deviates:\n  capture: %+v\n  replay : %+v", i, x.Events[i], replayed[i])
		}
	}
	if string(ce.Verdict.Violation) != x.Meta.Verdict {
		t.Errorf("replay verdict %q != captured %q", ce.Verdict.Violation, x.Meta.Verdict)
	}

	// The engine's wall-clock spans must have been sealed on Close: the
	// spans file parses without ErrTruncated and holds at least the
	// worker task spans.
	sp, err := export.ReadFile(globOne(t, dir, "spans-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Meta.Kind != "spans" || len(sp.Spans) == 0 {
		t.Errorf("spans file: kind %q, %d spans", sp.Meta.Kind, len(sp.Spans))
	}

	// Every capture also gets a Perfetto rendering.
	if _, err := os.Stat(globOne(t, dir, "violation-*.perfetto.json")); err != nil {
		t.Error(err)
	}
}

// TestTraceExplain: the explainer must replay the capture, verify it, and
// narrate the faulty CAS and the tolerance bound.
func TestTraceExplain(t *testing.T) {
	dir := t.TempDir()
	out, err := CheckWith(context.Background(),
		violatingOpts(run.WithTraceDir(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("expected a violation")
	}
	var buf bytes.Buffer
	if err := ExplainFile(&buf, globOne(t, dir, "violation-*.jsonl")); err != nil {
		t.Fatalf("explain: %v\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{
		"replay", "verified", "consistency", "mis-fired", "tolerance bound", "Theorem",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explanation lacks %q:\n%s", want, got)
		}
	}
}

// TestExplainRejectsSpansFile: the explainer only explains executions.
func TestExplainRejectsSpansFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := CheckWith(context.Background(),
		violatingOpts(run.WithTraceDir(dir, 0))...); err != nil {
		t.Fatal(err)
	}
	err := ExplainFile(&bytes.Buffer{}, globOne(t, dir, "spans-*.jsonl"))
	if err == nil {
		t.Error("explaining a spans file must fail")
	}
}

// TestTracerSampling: with sampling on and a passing configuration, some
// passing executions are captured and marked verdict "ok".
func TestTracerSampling(t *testing.T) {
	dir := t.TempDir()
	out, err := CheckWith(context.Background(),
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithDistinctInputs(2),
		run.WithAllObjectsFaulty(1),
		run.WithTraceDir(dir, 25),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Complete || !out.OK() {
		t.Fatalf("reference config must pass: complete=%v violation=%v", out.Complete, out.Violation)
	}
	samples, err := filepath.Glob(filepath.Join(dir, "sample-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("sampling 1-in-25 captured nothing")
	}
	x, err := export.ReadFile(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if x.Meta.Verdict != "ok" {
		t.Errorf("sampled execution verdict = %q, want ok", x.Meta.Verdict)
	}
	if len(x.Events) == 0 {
		t.Error("sampled execution has no events")
	}
}

// TestTracerSequenceContinues: a tracer opened over a directory with
// existing artifacts numbers new files past them, so resumed runs and
// sweeps never clobber earlier captures. Each kind has its own sequence:
// samples numbered higher do not move the next violation's number.
func TestTracerSequenceContinues(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"violation-000007.jsonl", "sample-000042.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := CheckWith(context.Background(),
		violatingOpts(run.WithTraceDir(dir, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatal("expected a violation")
	}
	if _, err := os.Stat(filepath.Join(dir, "violation-000008.jsonl")); err != nil {
		t.Errorf("new capture must continue numbering past 000007: %v", err)
	}
}

// TestTracerSummaryAndClose: capture counters, idempotent Close, and the
// refusal to capture after Close.
func TestTracerSummaryAndClose(t *testing.T) {
	dir := t.TempDir()
	tr, err := NewTracer(dir, 0, map[string]string{"proto": "figure3"})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Replay(run.NewSettings(violatingOpts()...), []int{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.captureViolation(3, ce.Path, ce); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if sum.Violations != 1 || sum.Samples != 0 || sum.Skipped != 0 {
		t.Errorf("summary = %+v", sum)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := tr.captureViolation(0, ce.Path, ce); err == nil {
		t.Error("capture after Close must fail")
	}

	// Nil tracer: everything is a no-op.
	var nilTr *Tracer
	if nilTr.Recorder() != nil || nilTr.sampleHit() || nilTr.Close() != nil {
		t.Error("nil tracer must be inert")
	}
	if s := nilTr.Summary(); s.Violations != 0 {
		t.Errorf("nil summary = %+v", s)
	}
}

// TestTraceCapturesExplainVerified: every violation and sample an engine
// run writes must explain as verified, since each is the recording replay
// of a leaf its worker replayed without recording. The configuration (the
// staged protocol at f=2, t=1 beyond its bound, n=4) replays dozens of
// leaves before its violation. The cells cover the plain tree, dedup and
// reduction (a reduced path indexes the reducer's candidates, so its
// capture must replay under reduction) at one and two workers.
func TestTraceCapturesExplainVerified(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		for _, reduce := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("dedup=%v/reduce=%s/workers=%d", dedup, reduce, workers)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					opts := []run.Option{
						run.WithProtocol(core.NewStaged(2, 1)),
						run.WithDistinctInputs(4),
						run.WithFaultyObjects([]int{0, 1}, 1),
						run.WithTraceDir(dir, 3),
						run.WithWorkers(workers),
						run.WithReduce(reduce),
					}
					if dedup {
						opts = append(opts, run.WithDedup())
					}
					out, err := CheckWith(context.Background(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					if out.Violation == nil {
						t.Fatal("expected a violation")
					}
					counts := map[string]int{}
					for _, kind := range []string{"violation", "sample"} {
						files, err := filepath.Glob(filepath.Join(dir, kind+"-*.jsonl"))
						if err != nil {
							t.Fatal(err)
						}
						for _, f := range files {
							var buf bytes.Buffer
							if err := ExplainFile(&buf, f); err != nil {
								t.Fatalf("explain %s: %v", filepath.Base(f), err)
							}
							if !strings.Contains(buf.String(), "replay        : verified") {
								t.Errorf("explain %s did not verify:\n%s", filepath.Base(f), buf.String())
							}
							counts[kind]++
						}
					}
					if counts["violation"] == 0 || counts["sample"] == 0 {
						t.Errorf("captured %v, want at least one violation and one sample", counts)
					}
				})
			}
		}
	}
}

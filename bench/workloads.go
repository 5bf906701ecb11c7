package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
	"repro/internal/trace/export"
)

// workload is one configuration the benchmark runs verdicts of. The system
// is driven only through entry points the planned consolidations keep:
// explore.CheckWith with run.With... options, harness.All/RunOne, and
// explore.ExplainFile.
type workload struct {
	name string
	// proto, n, faulty and perObject describe the explored configuration;
	// faulty nil means every object. The tables workload runs no single
	// configuration and uses these fields only for the step and dedup
	// probes.
	proto     core.Protocol
	n         int
	faulty    []int
	perObject int
	// options are the engine options beyond the configuration.
	options []run.Option
	want    answer
	verdict func(w *workload, v *verdict) error
}

// The durable workload interrupts its first run once this many executions
// are done, so the interrupt point is defined by work, not by a timer.
const (
	interruptAt     = 10_000
	checkpointEvery = 25 * time.Millisecond
	pollEvery       = time.Millisecond
)

var workloads = []*workload{
	{
		// Theorem 6 with unbounded faults on every object: nearly all
		// time goes to leaf replay; dedup, reducer, store and tracer are
		// bypassed.
		name:      "prove-replay",
		proto:     core.NewStaged(1, 1),
		n:         2,
		perObject: fault.Unbounded,
		want:      answer{executions: 59004},
		verdict:   prove,
	},
	{
		// Theorem 5 at n=5 with dedup and reduction: fingerprinting, set
		// probes and the reducer dominate the per-execution cost.
		name:      "prove-pruned",
		proto:     core.NewFPlusOne(1),
		n:         5,
		faulty:    []int{0},
		perObject: fault.Unbounded,
		options:   []run.Option{run.WithDedup(), run.WithReduce(run.ReduceSafe)},
		verdict:   prove,
	},
	{
		// Theorem 19's covering case at n=f+2: a lex-least counterexample,
		// certified across workers and captured as a trace.
		name:      "refute",
		proto:     core.NewStaged(3, 1),
		n:         5,
		perObject: 1,
		options:   []run.Option{run.WithDedup(), run.WithReduce(run.ReduceSafe)},
		want:      answer{violation: "consistency", pathLen: 138, pathHash: 0xd9def76253973807},
		verdict:   refute,
	},
	{
		// prove-replay with dedup, checkpointed, interrupted and resumed:
		// the dedup set and the frontier go to disk and come back.
		name:      "durable",
		proto:     core.NewStaged(1, 1),
		n:         2,
		perObject: fault.Unbounded,
		options:   []run.Option{run.WithDedup()},
		verdict:   durable,
	},
	{
		// One full E1–E10 pass, the paper-reproduction run. The probes use
		// prove-replay's configuration.
		name:      "tables",
		proto:     core.NewStaged(1, 1),
		n:         2,
		perObject: fault.Unbounded,
		verdict:   tables,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// answer is the verdict the paper predicts for a configuration.
type answer struct {
	// violation is empty for VERIFIED and complete (Theorems 5 and 6) and
	// names the violated requirement otherwise (Theorem 19).
	violation string
	// executions, when positive, pins the execution count of a complete
	// enumeration. Dedup makes counts depend on worker interleaving, so
	// deduplicated workloads leave it zero.
	executions int
	// pathLen and pathHash pin the lex-least counterexample's choice path.
	pathLen  int
	pathHash uint64
}

func (a answer) check(out *explore.Outcome) error {
	if a.violation == "" {
		switch {
		case out.Violation != nil:
			return fmt.Errorf("want VERIFIED, found a %s violation", out.Violation.Verdict.Violation)
		case !out.Complete:
			return fmt.Errorf("want a complete enumeration, stopped after %d executions", out.Executions)
		case a.executions > 0 && out.Executions != a.executions:
			return fmt.Errorf("want %d executions, got %d", a.executions, out.Executions)
		}
		return nil
	}
	if out.Violation == nil {
		return fmt.Errorf("want a %s violation, found none in %d executions", a.violation, out.Executions)
	}
	if got := string(out.Violation.Verdict.Violation); got != a.violation {
		return fmt.Errorf("want a %s violation, found %s", a.violation, got)
	}
	p := out.Violation.Path
	if len(p) != a.pathLen || pathHash(p) != a.pathHash {
		return fmt.Errorf("want lex-least path of length %d hash %016x, got length %d hash %016x",
			a.pathLen, a.pathHash, len(p), pathHash(p))
	}
	return nil
}

// pathHash is FNV-1a over the choice path's little-endian 32-bit entries.
func pathHash(path []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range path {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (w *workload) faultyObjects() []int {
	if w.faulty != nil {
		return w.faulty
	}
	ids := make([]int, w.proto.Objects())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// runOptions returns the exploration options of one call, publishing on reg.
func (w *workload) runOptions(v *verdict, reg *obs.Registry, extra ...run.Option) []run.Option {
	opts := []run.Option{
		run.WithProtocol(w.proto),
		run.WithInputs(v.inputs...),
		run.WithFaultyObjects(w.faultyObjects(), w.perObject),
		run.WithWorkers(runtime.NumCPU()),
		run.WithMetrics(reg),
	}
	opts = append(opts, w.options...)
	return append(opts, extra...)
}

// verdict is one verdict in progress: its inputs, its scratch directory,
// the registries its calls publish on, and its spans.
type verdict struct {
	inputs []int64
	seed   int64
	quick  bool
	dir    string
	// timed is the time spent inside the calls a verdict is measured by:
	// CheckWith, or RunOne for tables.
	timed time.Duration
	regs  []*obs.Registry
	spans *spans // nil when untraced
	root  int
	// traceFiles and traceBytes describe the trace directory the verdict
	// captured.
	traceFiles, traceBytes int64
}

func (v *verdict) registry() *obs.Registry {
	r := obs.NewRegistry()
	v.regs = append(v.regs, r)
	return r
}

// step runs fn inside a span named name under the verdict's root span and
// returns fn's duration.
func (v *verdict) step(name string, fn func() error) (time.Duration, error) {
	sp := v.spans.begin(name, v.root)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.end()
	return d, err
}

// check runs one exploration, adds its time to the verdict and returns its
// outcome.
func (v *verdict) check(ctx context.Context, span string, opts []run.Option) (*explore.Outcome, error) {
	var out *explore.Outcome
	d, err := v.step(span, func() (err error) {
		out, err = explore.CheckWith(ctx, opts...)
		return err
	})
	v.timed += d
	return out, err
}

func prove(w *workload, v *verdict) error {
	out, err := v.check(context.Background(), "explore.check", w.runOptions(v, v.registry()))
	if err != nil {
		return err
	}
	return w.want.check(out)
}

// refute captures the violations as traces and re-verifies the lex-least
// one by replay through explore.ExplainFile.
func refute(w *workload, v *verdict) error {
	dir := filepath.Join(v.dir, "traces")
	out, err := v.check(context.Background(), "explore.check",
		w.runOptions(v, v.registry(), run.WithTraceDir(dir, 0)))
	if err != nil {
		return err
	}
	if err := w.want.check(out); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var captured string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		v.traceFiles++
		v.traceBytes += info.Size()
		if captured != "" || !strings.HasPrefix(e.Name(), "violation-") || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		x, err := export.ReadFile(path)
		if err != nil {
			return err
		}
		if slices.Equal(x.Meta.Path, out.Violation.Path) {
			captured = path
		}
	}
	if captured == "" {
		return errors.New("the lex-least counterexample was not captured")
	}
	_, err = v.step("trace.explain", func() error { return explore.ExplainFile(io.Discard, captured) })
	return err
}

// durable checkpoints a run, cancels it once interruptAt executions are
// done, and resumes it to completion.
func durable(w *workload, v *verdict) error {
	dir := filepath.Join(v.dir, "run")
	ckpt := run.WithCheckpoint(dir, checkpointEvery)
	reg := v.registry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := cancelAt(reg.Counter("explore.executions"), interruptAt, cancel)
	out, err := v.check(ctx, "explore.check", w.runOptions(v, reg, ckpt))
	stop()
	if !errors.Is(err, context.Canceled) {
		if err != nil {
			return err
		}
		return fmt.Errorf("run finished after %d executions, before the interrupt at %d", out.Executions, interruptAt)
	}
	// The interrupted run directory must open; the open is timed as the
	// store layer's probe, outside the verdict's time.
	if _, err := v.step("store.open", func() error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		return st.Close()
	}); err != nil {
		return err
	}
	reg = v.registry()
	out, err = v.check(context.Background(), "explore.resume", w.runOptions(v, reg, ckpt, run.WithResume(dir)))
	if err != nil {
		return err
	}
	if reg.Counter("explore.executions.restored").Load() == 0 {
		return errors.New("the resumed run restored no executions")
	}
	return w.want.check(out)
}

// cancelAt calls cancel once the counter reaches n. The returned stop
// function returns after the watcher has exited.
func cancelAt(c *obs.Counter, n int64, cancel func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if c.Load() >= n {
					cancel()
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// tables runs every experiment once; each must reproduce its paper result.
func tables(_ *workload, v *verdict) error {
	opts := harness.NewOptions(run.WithQuick(v.quick), run.WithSeed(v.seed),
		run.WithWorkers(runtime.NumCPU()), run.WithMetrics(v.registry()))
	for _, e := range harness.All() {
		d, err := v.step("harness."+e.ID, func() error { return harness.RunOne(io.Discard, e, opts) })
		v.timed += d
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

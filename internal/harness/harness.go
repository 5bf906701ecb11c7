// Package harness defines the reproduction experiments E1–E8 of DESIGN.md:
// one experiment per paper result (Figures 1–3, Theorems 4–6, 18, 19, the
// consensus-hierarchy observation of Section 5.2, the fault taxonomy of
// Section 3.4, and the practicality measurements). Each experiment prints
// the table recorded in EXPERIMENTS.md and returns an error if the paper's
// prediction fails to reproduce.
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
)

// Options tunes experiment effort. It is the harness view of the unified
// run.Settings; construct it from the shared run.With... options via
// NewOptions.
type Options struct {
	// Quick shrinks sweeps and sample counts (used by tests); the full
	// configuration is the default used by cmd/experiments.
	Quick bool
	// Seed drives every randomized component; a fixed seed reproduces
	// the exact tables.
	Seed int64
	// Workers is the parallelism of exploration-driven experiments
	// (0 means GOMAXPROCS). Tables stay identical across worker counts:
	// every execution count they print is one the explore.Outcome
	// contract fixes for any worker count (a complete or a capped run),
	// and the rows that stop at their first violation run on one worker
	// (stopOnFirst).
	Workers int
	// Metrics, when non-nil, receives the counters of every exploration
	// an experiment drives, plus the harness's own per-experiment
	// accounting (harness.experiments.*).
	Metrics *obs.Registry
	// Events, when non-nil, receives experiment lifecycle events and the
	// engine event streams of the underlying explorations.
	Events *obs.Log
	// TraceDir, when non-empty, captures execution traces of every
	// exploration the experiments drive into that directory (violations
	// always, 1-in-TraceSample passing runs); file numbering is shared
	// across the sweep's explorations.
	TraceDir string
	// TraceSample is the passing-execution sampling rate for TraceDir.
	TraceSample int
	// Reduce applies partial-order reduction to every exhaustive
	// exploration driven by the checker's own fault policy (fixed-policy
	// rows run unreduced — the reducer reasons about the checker's fault
	// branches). Verdicts and counterexamples are unchanged; printed
	// execution counts shrink.
	Reduce run.ReduceMode
}

// NewOptions derives experiment options from the unified run.With... options
// (run.WithQuick, run.WithSeed, run.WithWorkers, run.WithMetrics,
// run.WithEvents, run.WithTraceDir, run.WithReduce).
func NewOptions(opts ...run.Option) Options {
	s := run.NewSettings(opts...)
	return Options{Quick: s.Quick, Seed: s.Seed, Workers: s.Workers,
		Metrics: s.Metrics, Events: s.Events,
		TraceDir: s.TraceDir, TraceSample: s.TraceSample,
		Reduce: s.Reduce}
}

// engine bundles the options every engine-driven exploration inside an
// experiment shares: the parallelism plus the observability sinks, so one
// registry, one event log, and one trace directory see every exploration
// the harness runs.
func (o Options) engine() run.Option {
	return func(s *run.Settings) {
		s.Workers = o.Workers
		s.Metrics = o.Metrics
		s.Events = o.Events
		s.TraceDir = o.TraceDir
		s.TraceSample = o.TraceSample
		s.Reduce = o.Reduce
	}
}

// stopOnFirst runs an exploration that stops at its first violation on one
// worker. Its counterexample is the lexicographically least one for any
// worker count, but above one worker its execution count only says how far
// the workers got before the violation stopped them; on one worker it is
// the counterexample's rank in lexicographic order. Such rows are small, so
// a table prints that rank and stays the same for any Options.Workers.
var stopOnFirst = run.WithWorkers(1)

// Experiment is one reproduction experiment.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E3").
	ID string
	// Title summarizes the experiment.
	Title string
	// Claim is the paper result being reproduced.
	Claim string
	// Run executes the experiment, writes its table(s) to w, and returns
	// an error if the paper's prediction does not hold.
	Run func(w io.Writer, opts Options) error
}

// All lists the experiments in order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "E1",
			Title: "Two-process consensus from one faulty CAS (Figure 1)",
			Claim: "Theorem 4: (f, ∞, 2)-tolerant with a single object",
			Run:   runE1,
		},
		{
			ID:    "E2",
			Title: "f-tolerant consensus from f+1 CAS objects (Figure 2)",
			Claim: "Theorem 5: f faulty objects, unbounded faults, any n",
			Run:   runE2,
		},
		{
			ID:    "E3",
			Title: "(f, t, f+1)-tolerant consensus from f faulty objects (Figure 3)",
			Claim: "Theorem 6: all objects faulty, bounded faults, n = f+1",
			Run:   runE3,
		},
		{
			ID:    "E4",
			Title: "Impossibility with unbounded faults and n > 2",
			Claim: "Theorem 18: f objects cannot carry consensus for n = 3",
			Run:   runE4,
		},
		{
			ID:    "E5",
			Title: "Covering adversary at n = f+2 (and its failure at f+1)",
			Claim: "Theorem 19: f objects cannot carry consensus for n ≥ f+2",
			Run:   runE5,
		},
		{
			ID:    "E6",
			Title: "Consensus hierarchy of faulty CAS objects",
			Claim: "Section 5.2: consensus number of f bounded-faulty CAS = f+1",
			Run:   runE6,
		},
		{
			ID:    "E7",
			Title: "Other fault kinds and the data-fault expressiveness gap",
			Claim: "Sections 3.4 and 4: silent faults recoverable iff bounded; one data fault beats any functional budget",
			Run:   runE7,
		},
		{
			ID:    "E8",
			Title: "Construction cost on real atomics",
			Claim: "Practicality: cost ordering baseline < Fig.2 < Fig.3, Fig.3 cost grows with t·(4f+f²)",
			Run:   runE8,
		},
		{
			ID:    "E9",
			Title: "Graceful degradation beyond the budget",
			Claim: "Section 7 direction: over-budget overriding faults break consistency only — validity and wait-freedom survive",
			Run:   runE9,
		},
		{
			ID:    "E10",
			Title: "Stage-budget ablation for Figure 3",
			Claim: "Section 4.3 remark: an earlier maximal stage can work — the paper's t·(4f+f²) is safe and conservative",
			Run:   runE10,
		},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunOne executes a single experiment with observability: an
// experiment.start/.done event pair, a pass/fail counter, and a duration
// histogram on the options' registry (all no-ops when observability is
// off). Both cmd/experiments and RunAll go through it, so per-experiment
// accounting is identical for single and full runs.
func RunOne(w io.Writer, e Experiment, opts Options) error {
	opts.Events.Emit(obs.Info, "experiment.start", map[string]any{
		"id": e.ID, "title": e.Title, "quick": opts.Quick,
	})
	start := time.Now()
	err := e.Run(w, opts)
	elapsed := time.Since(start)
	if opts.Metrics != nil {
		opts.Metrics.Counter("harness.experiments.run").Inc()
		if err != nil {
			opts.Metrics.Counter("harness.experiments.failed").Inc()
		}
		opts.Metrics.Histogram("harness.experiment.duration_ms",
			10, 50, 100, 500, 1000, 5000, 10000, 60000, 300000).
			Observe(float64(elapsed.Microseconds()) / 1000)
	}
	fields := map[string]any{"id": e.ID, "elapsed_ms": elapsed.Milliseconds(), "ok": err == nil}
	if err != nil {
		fields["error"] = err.Error()
		opts.Events.Emit(obs.Error, "experiment.done", fields)
	} else {
		opts.Events.Emit(obs.Info, "experiment.done", fields)
	}
	return err
}

// RunAll executes every experiment in order, writing headers between them.
// It keeps going after a failure and returns a combined error.
func RunAll(w io.Writer, opts Options) error {
	var failed []string
	for _, e := range All() {
		fmt.Fprintf(w, "\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprintf(w, "claim: %s\n\n", e.Claim)
		if err := RunOne(w, e, opts); err != nil {
			fmt.Fprintf(w, "FAILED: %v\n", err)
			failed = append(failed, fmt.Sprintf("%s (%v)", e.ID, err))
			continue
		}
		fmt.Fprintf(w, "reproduced: %s\n", e.Claim)
	}
	if len(failed) > 0 {
		return fmt.Errorf("experiments failed: %v", failed)
	}
	return nil
}

// inputs returns n distinct input values.
func inputs(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(10 + i)
	}
	return in
}

// objectIDs returns [0, 1, .., n-1].
func objectIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

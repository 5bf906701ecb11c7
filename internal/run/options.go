package run

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Settings is the one description of consensus executions, shared by every
// driver in the repository: single runs (ConsensusWith, ConsensusContext),
// the exploration engine (internal/explore), the experiment harness
// (internal/harness), and the CLI tools.
//
// Construct a Settings with NewSettings and the With... functional options;
// zero values mean "use the default".
type Settings struct {
	// Protocol under test.
	Protocol core.Protocol
	// Inputs holds one input value per process; len(Inputs) is n.
	Inputs []int64
	// Scheduler chooses the interleaving for single runs; exploration
	// drivers install their own choice-driven scheduler.
	Scheduler sim.Scheduler
	// FaultyObjects is the adversary's committed faulty-object set.
	FaultyObjects []int
	// FaultsPerObject is the per-object fault bound t (fault.Unbounded
	// for t = ∞).
	FaultsPerObject int
	// Kind is the functional fault to inject (default Overriding).
	Kind fault.Kind
	// Policy, when non-nil, fixes the fault decisions (an adversary);
	// exploration then enumerates scheduling only.
	Policy fault.Policy
	// Budget, when non-nil, overrides the (FaultyObjects,
	// FaultsPerObject) budget for single runs.
	Budget *fault.Budget
	// Trace enables event recording.
	Trace bool
	// Observer, when non-nil, sees every recorded event.
	Observer func(trace.Event)
	// StepLimit overrides the protocol's per-process step bound.
	StepLimit int
	// Exec selects the execution form: compiled step machines or the
	// goroutine-gated reference simulator (default ExecAuto — compiled
	// whenever the protocol provides a core.Stepper).
	Exec ExecMode
	// Reduce selects the partial-order reduction mode for exploration
	// drivers (default ReduceOff).
	Reduce ReduceMode
	// MaxExecutions caps an exploration (0 means the explorer's default).
	MaxExecutions int
	// Workers is the exploration parallelism (0 means GOMAXPROCS).
	Workers int
	// Dedup enables state deduplication in the exploration engine.
	Dedup bool
	// CheckpointDir, when non-empty, makes the exploration engine create a
	// run store there and checkpoint into it periodically.
	CheckpointDir string
	// CheckpointEvery overrides the checkpoint period (0 means the
	// engine's default).
	CheckpointEvery time.Duration
	// Resume, when non-empty, resumes the exploration recorded in that run
	// directory; the stored manifest must match these settings.
	Resume string
	// LedgerDir, when non-empty, joins (or creates) the multi-process work
	// ledger in that run directory: the exploration claims subtrees from
	// the shared ledger and publishes results there, so any number of OS
	// processes pointed at the same directory cooperate on one sweep. The
	// stored manifest must match these settings. Mutually exclusive with
	// CheckpointDir and Resume.
	LedgerDir string
	// WorkerID names this participant in the work ledger (default
	// "host:pid"). It must be unique among live participants.
	WorkerID string
	// LeaseTTL is the ledger lease time-to-live: a participant silent for
	// this long forfeits its claimed subtree to the survivors (0 means the
	// ledger's default). Only the participant that creates the ledger sets
	// the TTL; later joiners adopt it.
	LeaseTTL time.Duration
	// Quick shrinks experiment sweeps and sample counts.
	Quick bool
	// Seed drives every randomized component.
	Seed int64
	// Metrics, when non-nil, is the registry exploration drivers publish
	// their counters, gauges, and histograms on (see docs/MODEL.md for the
	// metric names).
	Metrics *obs.Registry
	// Events, when non-nil, receives the structured run event log.
	Events *obs.Log
	// TraceDir, when non-empty, makes exploration drivers capture durable
	// execution traces (trace/v1 JSONL + Perfetto JSON) into that directory:
	// every violation, plus one in TraceSample passing executions.
	TraceDir string
	// TraceSample is the passing-execution sampling rate for TraceDir
	// (0 disables passing-run capture; violations are always captured).
	TraceSample int
}

// Option mutates one Settings field; the With... constructors below are the
// single way executions are described across the packages.
type Option func(*Settings)

// NewSettings applies the options to a zero Settings.
func NewSettings(opts ...Option) *Settings {
	s := &Settings{}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// WithProtocol sets the protocol under test.
func WithProtocol(p core.Protocol) Option { return func(s *Settings) { s.Protocol = p } }

// WithInputs sets one input value per process.
func WithInputs(inputs ...int64) Option {
	return func(s *Settings) { s.Inputs = append([]int64(nil), inputs...) }
}

// WithDistinctInputs sets the canonical n distinct inputs 10, 11, …, 10+n−1
// used throughout the experiments.
func WithDistinctInputs(n int) Option {
	return func(s *Settings) {
		s.Inputs = make([]int64, n)
		for i := range s.Inputs {
			s.Inputs[i] = int64(10 + i)
		}
	}
}

// WithScheduler sets the interleaving for single runs.
func WithScheduler(sched sim.Scheduler) Option { return func(s *Settings) { s.Scheduler = sched } }

// WithFaultyObjects commits the adversary to the given faulty-object set
// with at most perObject faults each (fault.Unbounded for t = ∞).
func WithFaultyObjects(ids []int, perObject int) Option {
	return func(s *Settings) {
		s.FaultyObjects = append([]int(nil), ids...)
		s.FaultsPerObject = perObject
	}
}

// WithAllObjectsFaulty commits the adversary to every object of the
// protocol (requires WithProtocol first, as options apply in order).
func WithAllObjectsFaulty(perObject int) Option {
	return func(s *Settings) {
		if s.Protocol == nil {
			panic("run: WithAllObjectsFaulty requires WithProtocol before it")
		}
		ids := make([]int, s.Protocol.Objects())
		for i := range ids {
			ids[i] = i
		}
		s.FaultyObjects = ids
		s.FaultsPerObject = perObject
	}
}

// WithFaultKind sets the functional fault to inject.
func WithFaultKind(k fault.Kind) Option { return func(s *Settings) { s.Kind = k } }

// WithPolicy fixes the fault decisions to a deterministic adversary policy.
func WithPolicy(p fault.Policy) Option { return func(s *Settings) { s.Policy = p } }

// WithBudget sets an explicit fault budget for single runs.
func WithBudget(b *fault.Budget) Option { return func(s *Settings) { s.Budget = b } }

// WithTrace enables event recording.
func WithTrace() Option { return func(s *Settings) { s.Trace = true } }

// WithObserver installs an event observer.
func WithObserver(fn func(trace.Event)) Option { return func(s *Settings) { s.Observer = fn } }

// WithStepLimit overrides the protocol's per-process step bound.
func WithStepLimit(n int) Option { return func(s *Settings) { s.StepLimit = n } }

// WithCompiled selects the execution form explicitly: true requires the
// compiled step machines (refusing protocols without a core.Stepper),
// false forces the goroutine-gated reference simulator. Without this
// option the compiled form is used whenever the protocol provides one.
func WithCompiled(compiled bool) Option {
	return func(s *Settings) {
		if compiled {
			s.Exec = ExecCompiled
		} else {
			s.Exec = ExecInterpreted
		}
	}
}

// WithExecMode sets the execution form directly (flag plumbing).
func WithExecMode(m ExecMode) Option { return func(s *Settings) { s.Exec = m } }

// WithReduce sets the exploration engine's partial-order reduction mode.
func WithReduce(m ReduceMode) Option { return func(s *Settings) { s.Reduce = m } }

// WithMaxExecutions caps an exploration.
func WithMaxExecutions(n int) Option { return func(s *Settings) { s.MaxExecutions = n } }

// WithWorkers sets the exploration parallelism (0 means GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Settings) { s.Workers = n } }

// WithDedup enables state deduplication in the exploration engine: subtrees
// rooted at an already-visited canonical execution state are pruned.
func WithDedup() Option { return func(s *Settings) { s.Dedup = true } }

// WithCheckpoint makes the exploration engine create a run store in dir and
// persist crash-safe checkpoints every period (0 means the engine default).
func WithCheckpoint(dir string, every time.Duration) Option {
	return func(s *Settings) {
		s.CheckpointDir = dir
		s.CheckpointEvery = every
	}
}

// WithResume makes the exploration engine resume the run recorded in dir,
// refusing to start if the stored manifest does not match these settings.
func WithResume(dir string) Option { return func(s *Settings) { s.Resume = dir } }

// WithLedger joins (or creates) the multi-process work ledger in the run
// directory: processes pointed at the same directory split one exploration
// between them and merge to the single-process verdict.
func WithLedger(dir string) Option { return func(s *Settings) { s.LedgerDir = dir } }

// WithWorkerID names this ledger participant (default "host:pid").
func WithWorkerID(id string) Option { return func(s *Settings) { s.WorkerID = id } }

// WithLeaseTTL sets the ledger lease time-to-live when creating a ledger;
// later joiners adopt the creator's TTL.
func WithLeaseTTL(ttl time.Duration) Option { return func(s *Settings) { s.LeaseTTL = ttl } }

// WithMetrics publishes exploration metrics on the given registry.
func WithMetrics(reg *obs.Registry) Option { return func(s *Settings) { s.Metrics = reg } }

// WithEvents sends the structured run event log to the given log.
func WithEvents(log *obs.Log) Option { return func(s *Settings) { s.Events = log } }

// WithTraceDir makes exploration drivers capture durable execution traces
// into dir: every violation, plus one in sampleN passing executions
// (0 disables passing-run capture).
func WithTraceDir(dir string, sampleN int) Option {
	return func(s *Settings) {
		s.TraceDir = dir
		s.TraceSample = sampleN
	}
}

// WithQuick shrinks experiment sweeps and sample counts.
func WithQuick(quick bool) Option { return func(s *Settings) { s.Quick = quick } }

// WithSeed fixes the seed of every randomized component.
func WithSeed(seed int64) Option { return func(s *Settings) { s.Seed = seed } }

// Validate checks the fields every driver requires.
func (s *Settings) Validate() error {
	if s.Protocol == nil {
		return fmt.Errorf("run: no protocol")
	}
	if len(s.Inputs) == 0 {
		return fmt.Errorf("run: no inputs")
	}
	return nil
}

// ConsensusWith runs one execution described by the options (see
// ConsensusContext).
func ConsensusWith(opts ...Option) (*Result, error) {
	return ConsensusContext(context.Background(), NewSettings(opts...))
}

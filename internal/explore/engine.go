package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dedup"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
)

// Engine is the exploration engine: a frontier of choice-path prefixes
// sharded across workers, each worker running independent stateless replays
// (an execution is a pure function of protocol, inputs, and choice path, so
// subtrees explore with no shared state beyond the frontier and the
// aggregated outcome). What to explore and how — protocol, inputs, fault
// budget, cap, worker count, dedup, metrics, events — comes from the
// run.Settings passed to Check; the Engine holds only what settings cannot
// express.
//
// Determinism guarantees, independent of worker count and scheduling:
//
//   - A complete enumeration visits every leaf exactly once, so Executions,
//     MaxProcSteps, and MaxFaults are identical for any worker count.
//   - The reported Violation is canonical: the lexicographically least
//     violating choice path (default mode), or the violation with the
//     shortest schedule, ties broken lexicographically (Exhaustive mode).
//   - With one worker the LIFO frontier hands out subtrees in lexicographic
//     order, so leaves are visited in lexicographic order — the sequential
//     depth-first enumeration. See Outcome for what a capped run guarantees.
//
// In default mode a found violation does not cancel the other workers
// outright; instead it becomes a pruning bound: subtrees lexicographically
// at or above the best violation are abandoned, so only the work needed to
// certify the canonical counterexample remains. Combined with
// context.Context cancellation threaded through sim.Run, workers stop
// promptly once nothing below the bound is left.
//
// With Settings.Dedup, workers additionally fingerprint the canonical
// execution state before every scheduling decision and abandon subtrees
// rooted at a state already reached by a lexicographically smaller path (see
// package dedup for the canonicalization and the soundness argument).
// Deduplication preserves the verdict and the canonical counterexample
// exactly — only Executions becomes dependent on worker interleaving, since
// which of two racing paths reaches a shared state first is
// nondeterministic.
//
// With Store set, the engine periodically persists the frontier, the dedup
// set, and the aggregated outcome to the run directory, and primes itself
// from the stored checkpoint on start — an interrupted exploration resumed
// from its checkpoint reports the same verdict and counterexample as an
// uninterrupted one.
type Engine struct {
	// Exhaustive keeps enumerating after a violation (no pruning), so the
	// complete tree is visited and the minimal counterexample (shortest
	// schedule) is reported — see FindMinimal.
	Exhaustive bool
	// Store, when non-nil, receives crash-safe checkpoints every
	// Settings.CheckpointEvery (default 5s) and, when it already holds one,
	// seeds the exploration from it (resume).
	Store *store.Store
	// Progress, when non-nil, receives periodic throughput reports.
	Progress func(Progress)
	// ProgressEvery is the reporting period (default 2s).
	ProgressEvery time.Duration
	// LeaseSize is the number of executions a worker reserves from the cap
	// in one batch (default DefaultLeaseSize). The lease is the engine's
	// shared-state amortization unit: workers touch the shared execution
	// counter, the frontier slot publish, and the maxima merge once per
	// lease instead of once per leaf. Larger leases cut cross-core traffic
	// further but make mid-run progress and checkpoint counters staler.
	LeaseSize int
	// Ledger, when non-nil, switches Check to distributed mode: instead of
	// seeding its frontier with the whole execution tree, the engine claims
	// subtree tasks from the multi-process work ledger, runs each claim with
	// its full in-process worker pool, publishes the claim's outcome at the
	// lease boundary, and exports surplus subtrees for other OS processes to
	// claim. Checkpointing (Store) is mutually exclusive with Ledger — the
	// ledger's published results ARE the durable state, and a worker crash
	// loses at most one lease of work. See internal/ledger and
	// FinalizeLedger.
	Ledger *ledger.Ledger
	// FleetSnapshots, with Ledger, periodically publishes this worker's
	// observability snapshot — registry dump, heartbeat, current claim —
	// into the shared run directory (<run>/obs/worker-<id>.json) at TTL/3,
	// so the fleet aggregator (internal/obs/fleet, `modelcheck
	// -fleet-status`, /fleet) can report per-worker liveness and merged
	// metrics without talking to any worker. Ignored without Ledger; a
	// failed publish is a warn event, never a run failure.
	FleetSnapshots bool
	// Tracer, when non-nil, captures executions as durable trace artifacts:
	// every violation (up to MaxViolationCaptures) and a 1-in-N sample of
	// passing runs are written as trace/v1 + Perfetto files, and the
	// engine's worker-task and checkpoint spans feed its recorder. The
	// caller owns the tracer's lifetime (Close seals the spans file).
	Tracer *Tracer
}

// Progress is one throughput report of a running exploration.
type Progress struct {
	// Executions is the number of replays completed so far.
	Executions int64
	// Rate is the recent throughput in paths per second.
	Rate float64
	// Frontier is the number of queued subtree roots.
	Frontier int
	// Violations is the number of violating executions seen so far.
	Violations int64
	// Elapsed is the wall-clock time since the exploration started
	// (including time accumulated before a resume).
	Elapsed time.Duration
	// Donations is the number of subtree tasks workers have carved off
	// and pushed to the frontier for others to claim.
	Donations int64
	// Steals is the number of tasks claimed from the shared frontier.
	Steals int64
	// Dedup holds the state-cache counters (zero value when the engine
	// runs without deduplication).
	Dedup dedup.Stats
	// DepthP50 and DepthP99 are quantiles of the root depth of tasks that
	// entered the frontier — how deep into the tree the parallelism cuts.
	DepthP50 float64
	DepthP99 float64
}

// DefaultLeaseSize is the per-worker execution-cap lease (Engine.LeaseSize).
const DefaultLeaseSize = 64

// runMetrics is the registry-backed counter set of one engine run. The
// execution counter is advanced in per-lease batches from each worker's
// local tally (the cap itself is enforced by the capPool ledger), so the
// registry sees exact totals at every lease boundary without a shared
// counter bounce on every replay.
type runMetrics struct {
	execs        *obs.Counter // completed replays (flushed per lease)
	restored     *obs.Counter // executions primed from a resumed checkpoint
	violations   *obs.Counter
	prunes       *obs.Counter // replays halted at an already-covered state
	reducePrunes *obs.Counter // replays halted at a sleep-blocked node
	donations    *obs.Counter // subtree tasks pushed to the frontier
	steals       *obs.Counter // tasks claimed from the frontier
	ckptSaves    *obs.Counter
	ckptMS       *obs.Histogram // full saveCheckpoint duration (snapshot+write)
	depth        *obs.Histogram // root depth of tasks entering the frontier

	workerExecs  []*obs.Counter
	workerSteals []*obs.Counter
	workerIdleNS []*obs.Counter // time blocked waiting for frontier work
}

// newRunMetrics registers the engine's metric set on the registry. Names
// are stable — docs/MODEL.md documents them as the observability schema.
func newRunMetrics(reg *obs.Registry, workers int) *runMetrics {
	m := &runMetrics{
		execs:        reg.Counter("explore.executions"),
		restored:     reg.Counter("explore.executions.restored"),
		violations:   reg.Counter("explore.violations"),
		prunes:       reg.Counter("explore.dedup.prunes"),
		reducePrunes: reg.Counter("explore.reduce.prunes"),
		donations:    reg.Counter("explore.frontier.donations"),
		steals:       reg.Counter("explore.frontier.steals"),
		ckptSaves:    reg.Counter("explore.checkpoint.saves"),
		ckptMS: reg.Histogram("explore.checkpoint.save_ms",
			0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000),
		depth: reg.Histogram("explore.frontier.depth",
			1, 2, 4, 8, 12, 16, 24, 32, 48, 64),
		workerExecs:  make([]*obs.Counter, workers),
		workerSteals: make([]*obs.Counter, workers),
		workerIdleNS: make([]*obs.Counter, workers),
	}
	for w := 0; w < workers; w++ {
		m.workerExecs[w] = reg.Counter(fmt.Sprintf("explore.worker.%d.executions", w))
		m.workerSteals[w] = reg.Counter(fmt.Sprintf("explore.worker.%d.steals", w))
		m.workerIdleNS[w] = reg.Counter(fmt.Sprintf("explore.worker.%d.idle_ns", w))
	}
	return m
}

// tally is one reading of the shared counters a run reports. A registry may
// outlive one run (the harness points every exploration of a sweep at the
// same one), so the registry reads cumulatively while the cap, Outcome,
// Progress, checkpoints, and ledger results subtract the tally their scope
// started from.
type tally struct{ execs, violations, donations, steals, reducePrunes int64 }

func (m *runMetrics) tally() tally {
	return tally{
		execs:        m.execs.Load(),
		violations:   m.violations.Load(),
		donations:    m.donations.Load(),
		steals:       m.steals.Load(),
		reducePrunes: m.reducePrunes.Load(),
	}
}

// since returns how far the counters moved past base.
func (m *runMetrics) since(base tally) tally {
	t := m.tally()
	return tally{
		execs:        t.execs - base.execs,
		violations:   t.violations - base.violations,
		donations:    t.donations - base.donations,
		steals:       t.steals - base.steals,
		reducePrunes: t.reducePrunes - base.reducePrunes,
	}
}

// runEnv is the setup every engine run shares, whether it enumerates the
// whole tree or a stream of ledger claims: the settings and what prepare
// resolved from them, the worker and lease sizes, the registry-backed
// counters, and the dedup set.
type runEnv struct {
	s         *run.Settings
	kind      fault.Kind
	cap       int
	compiled  bool
	workers   int
	leaseSize int64
	reg       *obs.Registry
	m         *runMetrics
	set       *dedup.Set // nil without dedup
	ev        *obs.Log   // nil-safe
}

// setup validates the settings against the engine's attachments and builds
// the run environment. The registry is Settings.Metrics or a private one:
// the engine is always registry-backed, so Outcome and Progress are views of
// the same counters a live /metrics endpoint reads.
func (e *Engine) setup(s *run.Settings) (*runEnv, error) {
	kind, cap, compiled, err := prepare(s, e.Store, e.Ledger)
	if err != nil {
		return nil, err
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := s.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	leaseSize := int64(e.LeaseSize)
	if leaseSize <= 0 {
		leaseSize = DefaultLeaseSize
	}
	env := &runEnv{
		s: s, kind: kind, cap: cap, compiled: compiled,
		workers: workers, leaseSize: leaseSize,
		reg: reg, m: newRunMetrics(reg, workers), ev: s.Events,
	}
	reg.Gauge("explore.workers").Set(int64(workers))
	if s.Dedup {
		env.set = dedup.NewSet(0)
		env.set.Register(reg)
	}
	return env, nil
}

// scope is the window of the shared counters one report covers: their
// tally when it opened, and the wall clock since then plus any time
// accumulated before a resume.
type scope struct {
	base     tally
	start    time.Time
	elapsed0 time.Duration
}

func (env *runEnv) newScope() scope { return scope{base: env.m.tally(), start: time.Now()} }

func (sc *scope) elapsed() time.Duration { return sc.elapsed0 + time.Since(sc.start) }

// findings is what an enumeration has established: the reported
// counterexample, when the first violation was replayed, and the observed
// maxima.
type findings struct {
	best      *Counterexample
	firstAt   time.Duration
	maxSteps  int
	maxFaults int
}

// merge folds another enumeration's findings into f.
func (f *findings) merge(o findings, exhaustive bool) {
	f.maxSteps = max(f.maxSteps, o.maxSteps)
	f.maxFaults = max(f.maxFaults, o.maxFaults)
	if o.best == nil {
		return
	}
	if better(o.best, f.best, exhaustive) {
		f.best = o.best
	}
	if f.firstAt == 0 || (o.firstAt != 0 && o.firstAt < f.firstAt) {
		f.firstAt = o.firstAt
	}
}

// better decides whether cand replaces cur as the reported counterexample:
// the lexicographically least path by default, the shortest schedule with a
// lexicographic tie-break in exhaustive mode.
func better(cand, cur *Counterexample, exhaustive bool) bool {
	if cur == nil {
		return true
	}
	if exhaustive && len(cand.Schedule) != len(cur.Schedule) {
		return len(cand.Schedule) < len(cur.Schedule)
	}
	return lexLess(cand.Path, cur.Path)
}

// outcome renders a scope's counters and findings as an Outcome; finish
// decides Complete.
func (env *runEnv) outcome(sc *scope, f findings) *Outcome {
	d := env.m.since(sc.base)
	out := &Outcome{
		Executions:       int(d.execs),
		Violation:        f.best,
		MaxProcSteps:     f.maxSteps,
		MaxFaults:        f.maxFaults,
		Workers:          env.workers,
		Elapsed:          sc.elapsed(),
		ViolationLatency: f.firstAt,
		Donations:        d.donations,
		Steals:           d.steals,
		ReducePrunes:     d.reducePrunes,
	}
	if env.set != nil {
		st := env.set.Stats()
		out.Dedup = &st
	}
	return out
}

// finish seals an outcome and logs run.done with the given extra fields: a
// cancelled run is never complete and returns ctx's error alongside its
// partial outcome.
func (env *runEnv) finish(ctx context.Context, sc *scope, out *Outcome, complete bool, fields map[string]any) (*Outcome, error) {
	if fields == nil {
		fields = map[string]any{}
	}
	fields["executions"] = out.Executions
	fields["elapsed_ms"] = out.Elapsed.Milliseconds()
	if err := ctx.Err(); err != nil {
		fields["complete"] = false
		fields["cancelled"] = true
		env.ev.Emit(obs.Warn, "run.done", fields)
		return out, err
	}
	out.Complete = complete
	fields["complete"] = complete
	fields["violations"] = env.m.since(sc.base).violations
	env.ev.Emit(obs.Info, "run.done", fields)
	return out, nil
}

// every calls fn once per period on its own goroutine until fn returns
// false, ctx ends, or the returned stop function is called. stop returns
// only after the goroutine has exited, so no call of fn is in flight
// afterwards.
func every(ctx context.Context, period time.Duration, fn func(now time.Time) bool) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if !fn(now) {
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

// startProgress launches the periodic throughput reporter over a scope's
// counters and returns its stop function; pending reports the queued
// subtree count.
func (e *Engine) startProgress(ctx context.Context, env *runEnv, sc *scope, pending func() int) func() {
	if e.Progress == nil {
		return func() {}
	}
	period := e.ProgressEvery
	if period <= 0 {
		period = 2 * time.Second
	}
	var lastExecs int64
	lastTime := sc.start
	return every(ctx, period, func(now time.Time) bool {
		d := env.m.since(sc.base)
		p := Progress{
			Executions: d.execs,
			Rate:       float64(d.execs-lastExecs) / now.Sub(lastTime).Seconds(),
			Frontier:   pending(),
			Violations: d.violations,
			Elapsed:    sc.elapsed(),
			Donations:  d.donations,
			Steals:     d.steals,
		}
		lastExecs, lastTime = d.execs, now
		if env.set != nil {
			p.Dedup = env.set.Stats()
		}
		if snap := env.m.depth.Snapshot(); snap.Count > 0 {
			p.DepthP50 = snap.Quantile(0.5)
			p.DepthP99 = snap.Quantile(0.99)
		}
		e.Progress(p)
		return true
	})
}

// engineRun is the state of one enumeration: a whole Engine.Check, or one
// ledger claim.
type engineRun struct {
	*runEnv
	scope
	stopOnFirst bool
	lowWater    int
	pool        *capPool
	fr          *frontier
	st          *store.Store // nil without checkpointing
	tr          *Tracer      // nil without tracing

	capped atomic.Bool
	// bound is the lex-least violating path found so far (pruning bound);
	// nil until a violation is seen or in Exhaustive mode.
	bound atomic.Pointer[[]int]

	mu sync.Mutex
	findings
	err    error
	cancel context.CancelFunc
}

// newRun opens one enumeration on the shared environment: a fresh scope,
// violation bound, and findings. lowWater is the frontier size below which
// workers donate subtrees; cancel stops the enumeration on a framework
// error.
func (e *Engine) newRun(env *runEnv, lowWater int, cancel context.CancelFunc) *engineRun {
	return &engineRun{
		runEnv:      env,
		scope:       env.newScope(),
		stopOnFirst: !e.Exhaustive,
		lowWater:    lowWater,
		tr:          e.Tracer,
		cancel:      cancel,
	}
}

// seed loads the frontier with tasks and the cap pool with capacity
// (clamped at zero) before the workers start.
func (r *engineRun) seed(tasks []task, capacity int64) {
	r.pool = newCapPool(max(capacity, 0))
	r.fr = newFrontier(tasks, r.workers)
	for _, t := range tasks {
		r.m.depth.Observe(float64(len(t.path)))
	}
}

// runWorkers runs the worker pool until the frontier drains, the cap is
// spent, or ctx ends. pop and acquire block on condition variables, not on
// ctx, so cancellation is translated into frontier and cap-pool aborts that
// wake waiting workers.
func (r *engineRun) runWorkers(ctx context.Context) {
	go func() {
		<-ctx.Done()
		r.fr.abort()
		r.pool.abort()
	}()
	var wg sync.WaitGroup
	for i := 0; i < r.workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(ctx, w)
		}(i)
	}
	wg.Wait()
}

// result returns the enumeration's findings, or the first framework error.
func (r *engineRun) result() (findings, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.findings, r.err
}

// Check explores the execution tree the settings describe with the engine's
// worker pool. When ctx is cancelled or its deadline passes, the partial
// outcome is returned together with ctx.Err(). See Outcome for what each way
// of ending guarantees.
func (e *Engine) Check(ctx context.Context, s *run.Settings) (*Outcome, error) {
	env, err := e.setup(s)
	if err != nil {
		return nil, err
	}
	if e.Ledger != nil {
		return e.checkLedger(ctx, env)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := e.newRun(env, 2*env.workers, cancel)
	r.st = e.Store
	tasks := []task{{}} // root: the empty prefix
	resumed := false
	if r.st != nil {
		r.st.Instrument(env.reg, env.ev)
		if cp := r.st.Checkpoint(); cp != nil {
			if tasks, err = r.prime(cp); err != nil {
				return nil, err
			}
			resumed = true
		}
	}
	// The cap ledger: what this process may still execute is the cap minus
	// whatever a resumed checkpoint already accounts for.
	r.seed(tasks, int64(env.cap)-r.m.since(r.base).execs)
	env.reg.Func("explore.frontier.pending", func() int64 { return int64(r.fr.pending()) })
	env.ev.Emit(obs.Info, "run.start", map[string]any{
		"workers": env.workers, "cap": env.cap, "dedup": s.Dedup,
		"checkpoint": r.st != nil, "resumed": resumed, "tasks": len(tasks),
	})
	stopProgress := e.startProgress(ctx, env, &r.scope, r.fr.pending)
	stopCheckpoint := r.startCheckpoint(ctx)
	r.runWorkers(ctx)
	stopCheckpoint()
	stopProgress()

	f, err := r.result()
	if err != nil {
		return nil, err
	}
	if r.st != nil {
		// Final checkpoint: marks the run done when nothing is left, or
		// records the surviving tasks of a cancelled/capped run. A failed
		// save fails the run — a silently stale checkpoint would resume
		// from the wrong frontier.
		if err := r.saveCheckpoint(ctx.Err() == nil); err != nil {
			return nil, fmt.Errorf("explore: final checkpoint: %w", err)
		}
	}
	out := env.outcome(&r.scope, f)
	return env.finish(ctx, &r.scope, out, !r.capped.Load() && (f.best == nil || e.Exhaustive), nil)
}

// prime seeds the run from a stored checkpoint: counters, the best
// counterexample (reconstructed by replaying its path), the dedup set, and
// the task list that covers all unfinished work.
func (r *engineRun) prime(cp *store.Checkpoint) ([]task, error) {
	// The counters come from a fresh registry entry (or a run-scoped one),
	// so priming by Add keeps them exact; restored records how many of the
	// executions predate this process, which is what lets per-worker
	// counters still sum to the total after a resume.
	r.m.execs.Add(cp.Executions)
	r.m.restored.Add(cp.Executions)
	r.m.violations.Add(cp.Violations)
	r.maxSteps = cp.MaxProcSteps
	r.maxFaults = cp.MaxFaults
	r.firstAt = time.Duration(cp.FirstViolationNS)
	r.elapsed0 = time.Duration(cp.ElapsedNS)
	if len(cp.BestPath) > 0 {
		ce, err := Replay(r.s, cp.BestPath)
		if err != nil {
			return nil, fmt.Errorf("explore: resume: replaying stored counterexample: %w", err)
		}
		if ce.Verdict.OK() {
			return nil, fmt.Errorf("explore: resume: stored counterexample path %v no longer violates — the run directory does not match this configuration", cp.BestPath)
		}
		r.best = ce
		if r.stopOnFirst {
			p := ce.Path
			r.bound.Store(&p)
		}
	}
	if r.set != nil {
		r.set.Restore(cp.Dedup)
	}
	tasks := make([]task, len(cp.Tasks))
	for i, t := range cp.Tasks {
		tasks[i] = task{path: append([]int(nil), t.Path...), floor: t.Floor}
	}
	// A checkpoint lists its tasks in no lexicographic order. The frontier
	// pops the last task first, so put the lex-least last: the resumed run
	// continues at the lex-least unfinished leaf, and a violation there is
	// not left buried under donations carved from a larger subtree.
	sort.Slice(tasks, func(i, j int) bool { return lexLess(tasks[j].path, tasks[i].path) })
	r.ev.Emit(obs.Info, "checkpoint.restore", map[string]any{
		"seq": cp.Seq, "executions": cp.Executions, "tasks": len(tasks),
		"dedup_entries": len(cp.Dedup), "best_path_len": len(cp.BestPath),
	})
	return tasks, nil
}

// FindMinimal enumerates the complete tree (no early exit on the first
// violation) and returns the violating execution with the shortest schedule
// (ties broken by lexicographic choice path, so the result is
// deterministic), or nil if none exists. Use it on small configurations to
// extract the crispest counterexample for a report; Check is the fast path.
func (e *Engine) FindMinimal(ctx context.Context, s *run.Settings) (*Counterexample, *Outcome, error) {
	exhaustive := *e
	exhaustive.Exhaustive = true
	out, err := exhaustive.Check(ctx, s)
	if err != nil {
		return nil, out, err
	}
	return out.Violation, out, nil
}

// dedupHandle is one worker's deduplication state: the shared fingerprint
// set and the worker-local canonical-state tracker (reset per replay).
// Where the current replay was pruned lives on the execState (prunedAt),
// shared with the partial-order reducer.
type dedupHandle struct {
	set     *dedup.Set
	tracker *dedup.Tracker
}

// capPool is the execution-cap ledger: workers lease batches of executions
// instead of CAS-ing a shared counter per replay. Its invariant is
//
//	remaining + outstanding + consumed == capacity
//
// where consumed is the sum of all settled used counts. acquire returns
// (0, true) only on true exhaustion — remaining and outstanding both zero,
// so exactly capacity executions completed — which is what lets the engine
// latch `capped` without the old claim/release race: a dedup-pruned replay
// never touches the pool (its unit stays in the worker's lease), so the cap
// can no longer latch spuriously while the final count is under the cap.
type capPool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	remaining   int64 // units not yet leased
	outstanding int64 // units leased to workers, not yet settled
	aborted     bool
}

func newCapPool(capacity int64) *capPool {
	p := &capPool{remaining: capacity}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire leases up to max execution units. When the pool is drained but
// other workers still hold unsettled units, it blocks — those units may
// return (a worker's subtree can end before its lease is spent). This
// cannot deadlock: a worker only blocks here with zero unsettled units of
// its own (it settles before acquiring), so outstanding > 0 implies some
// worker is actively replaying and will settle. Returns (n>0, true) on
// success, (0, true) on exhaustion, (0, false) on abort.
func (p *capPool) acquire(max int64) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.aborted {
			return 0, false
		}
		if p.remaining > 0 {
			n := min(max, p.remaining)
			p.remaining -= n
			p.outstanding += n
			return n, true
		}
		if p.outstanding == 0 {
			return 0, true
		}
		p.cond.Wait()
	}
}

// settle returns a lease to the ledger: used units are consumed for good,
// unused units go back to remaining for other workers to lease.
func (p *capPool) settle(used, unused int64) {
	if used == 0 && unused == 0 {
		return
	}
	p.mu.Lock()
	p.remaining += unused
	p.outstanding -= used + unused
	if p.remaining > 0 || p.outstanding == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// abort wakes all blocked acquirers; the exploration is being cancelled.
func (p *capPool) abort() {
	p.mu.Lock()
	p.aborted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// workerLease is one worker's current slice of the execution cap: avail
// units may still be spent, used units are spent but not yet flushed to the
// shared counters.
type workerLease struct {
	avail int64
	used  int64
}

// flush publishes a worker's locally tallied executions to the shared
// metric counters and settles them with the cap pool. releaseUnused
// additionally returns the lease's unspent units (task exit: the worker is
// about to block on the frontier and must not sit on capacity other workers
// could spend). Flushing per lease instead of per leaf is what keeps the
// shared counters off the replay hot path; per-worker counters and the
// total advance in the same batch, so the report schema's worker-sum
// invariant (Σ worker executions + restored == total) holds at every flush
// boundary — in particular in every final report, even after cancellation
// mid-lease.
func (r *engineRun) flush(w int, l *workerLease, releaseUnused bool) {
	if l.used > 0 {
		r.m.execs.Add(l.used)
		r.m.workerExecs[w].Add(l.used)
	}
	var unused int64
	if releaseUnused {
		unused, l.avail = l.avail, 0
	}
	r.pool.settle(l.used, unused)
	l.used = 0
}

// mergeMaxima folds a worker's local step/fault maxima into the shared
// outcome. Called per lease boundary and at task exit, not per leaf.
func (r *engineRun) mergeMaxima(localSteps, localFaults int) {
	if localSteps == 0 && localFaults == 0 {
		return
	}
	r.mu.Lock()
	if localSteps > r.maxSteps {
		r.maxSteps = localSteps
	}
	if localFaults > r.maxFaults {
		r.maxFaults = localFaults
	}
	r.mu.Unlock()
}

// worker pops subtree tasks and enumerates them until the frontier drains.
// A task that could not be finished (cancellation, execution cap, error)
// stays in the worker's frontier slot so the final checkpoint preserves it;
// the worker then exits rather than claim further tasks it cannot finish.
//
// The replay machinery (chooser, execState with its arena, dedup tracker)
// is per-worker and lives for the worker's whole run — replays allocate
// nothing on their hot path.
func (r *engineRun) worker(ctx context.Context, w int) {
	var dh *dedupHandle
	if r.set != nil {
		dh = &dedupHandle{
			set:     r.set,
			tracker: dedup.NewTracker(r.s.Protocol.Objects(), r.s.Inputs, true),
		}
	}
	c := &chooser{}
	es := newExecState(r.s, r.kind, r.compiled, c, dh)
	defer es.close()
	var l workerLease
	for {
		idleStart := time.Now()
		t, ok := r.fr.pop(w)
		r.m.workerIdleNS[w].Add(time.Since(idleStart).Nanoseconds())
		if !ok {
			return
		}
		r.m.steals.Inc()
		r.m.workerSteals[w].Inc()
		finished := r.runSubtree(ctx, w, t, es, &l)
		// Settle before blocking on the frontier (or exiting): a worker
		// waiting for work must not sit on leased capacity.
		r.flush(w, &l, true)
		r.fr.done(w, finished)
		if !finished {
			return
		}
	}
}

// runSubtree enumerates the subtree task by stateless replay, donating
// sub-subtrees to the frontier whenever it runs low. It reports whether the
// task was finished: fully enumerated, or abandoned because no leaf below it
// can improve the canonical counterexample (bound pruning) or because its
// root state was already covered by a smaller path (dedup).
//
// Shared state is touched once per lease, not once per leaf: the cap pool,
// the metric counters, the frontier slot publish, and the maxima merge all
// amortize over LeaseSize replays. The slot path is therefore up to a lease
// stale, which is safe — a stale path lexicographically precedes the true
// position, so a checkpoint taken between publishes covers a superset of
// the remaining work (see docs/MODEL.md, "Performance model").
func (r *engineRun) runSubtree(ctx context.Context, w int, t task, es *execState, l *workerLease) bool {
	c := es.c
	c.path = append(c.path[:0], t.path...)
	c.arity = c.arity[:0]
	c.pos = 0
	c.lb = t.floor
	var localSteps, localFaults int
	var taskExecs int64
	spanStart := r.tr.Recorder().Begin()
	defer func() {
		r.tr.Recorder().End("task", "worker", w, -1, spanStart, map[string]any{
			"root_depth": len(t.path), "executions": taskExecs,
		})
		r.mergeMaxima(localSteps, localFaults)
	}()

	for {
		if ctx.Err() != nil {
			return false
		}
		if r.pruned(c.path) {
			// Replay visits leaves in lexicographic order, so once the
			// next path reaches the bound the rest of the subtree can
			// only contain larger counterexamples.
			return true
		}
		if l.avail == 0 {
			// Lease boundary: reconcile the spent lease, refresh the
			// slot's resume point, fold the maxima, and reserve the next
			// batch.
			r.flush(w, l, false)
			r.fr.publish(w, c.path, c.lb)
			r.mergeMaxima(localSteps, localFaults)
			n, ok := r.pool.acquire(r.leaseSize)
			if !ok {
				return false // cancelled; the slot keeps the task
			}
			if n == 0 {
				// True exhaustion: exactly cap executions completed.
				r.capped.Store(true)
				return false
			}
			l.avail = n
		}
		c.arity = c.arity[:0]
		c.pos = 0
		verdict, stats, pruned, err := es.runLeaf(ctx)
		if err != nil {
			if ctx.Err() == nil {
				r.fail(err)
			}
			return false
		}
		if r.set != nil {
			r.set.LeafLookup()
		}
		if pruned {
			// The replay halted at a redundant prefix — a state some
			// lex-smaller path already covers (dedup), or a sleep-blocked
			// node (reduction): the subtree below it proves nothing new.
			// No cap unit was spent — Executions counts completed
			// replays, and the pruned replay's unit stays in the lease.
			if es.pruneSleep {
				r.m.reducePrunes.Inc()
				r.ev.Emit(obs.Debug, "reduce.prune", map[string]any{
					"worker": w, "pos": es.prunedAt,
				})
			} else {
				r.m.prunes.Inc()
				r.ev.Emit(obs.Debug, "dedup.prune", map[string]any{
					"worker": w, "pos": es.prunedAt,
				})
			}
			if es.prunedAt <= c.lb {
				return true // the whole task is covered elsewhere
			}
			c.path = c.path[:es.prunedAt]
			c.arity = c.arity[:es.prunedAt]
			if !c.next() {
				return true
			}
			continue
		}
		l.avail--
		l.used++
		taskExecs++
		if stats.maxSteps > localSteps {
			localSteps = stats.maxSteps
		}
		if stats.faults > localFaults {
			localFaults = stats.faults
		}
		if !verdict.OK() {
			ce := es.counterexample(verdict)
			r.recordViolation(w, ce)
			if r.tr != nil {
				if err := r.tr.captureViolation(w, ce.Path, ce); err != nil {
					r.fail(fmt.Errorf("explore: trace capture: %w", err))
					return false
				}
			}
		} else if r.tr.sampleHit() {
			ce := es.counterexample(verdict)
			if err := r.tr.captureSample(w, ce.Path, ce); err != nil {
				r.fail(fmt.Errorf("explore: trace capture: %w", err))
				return false
			}
		}
		if r.fr.starving(r.lowWater) {
			if p, floor, ok := c.donate(); ok {
				// donate raised the chooser's floor past the donated
				// subtree; push before the next publish so a snapshot
				// between the two covers the donation twice, never zero
				// times.
				r.m.depth.Observe(float64(len(p)))
				r.m.donations.Inc()
				r.ev.Emit(obs.Debug, "frontier.donate", map[string]any{
					"worker": w, "tasks": 1, "depth": len(p),
				})
				r.fr.push([]task{{path: p, floor: floor}})
				r.fr.publish(w, c.path, c.lb)
			}
		}
		if !c.next() {
			return true
		}
	}
}

// pruned reports that every leaf below the path is lexicographically at or
// above the current violation bound.
func (r *engineRun) pruned(path []int) bool {
	bound := r.bound.Load()
	if bound == nil {
		return false
	}
	return lexGE(path, *bound)
}

// lexGE compares a (possibly partial) choice path against a full leaf path:
// the partial path stands for its own first-fill extension (zeros), which
// orders before every longer continuation.
func lexGE(path, leaf []int) bool {
	for i := 0; i < len(path) && i < len(leaf); i++ {
		if path[i] != leaf[i] {
			return path[i] > leaf[i]
		}
	}
	return len(path) >= len(leaf)
}

// recordViolation merges one violating execution into the shared outcome,
// keeping the canonical counterexample and tightening the pruning bound.
// ce must be self-contained (execState.counterexample): it is retained
// beyond the replay that produced it.
func (r *engineRun) recordViolation(w int, ce *Counterexample) {
	p := ce.Path
	r.m.violations.Inc()

	r.mu.Lock()
	if r.firstAt == 0 {
		r.firstAt = r.elapsed()
	}
	improved := better(ce, r.best, !r.stopOnFirst)
	if improved {
		r.best = ce
		if r.stopOnFirst {
			r.bound.Store(&p)
		}
	}
	r.mu.Unlock()
	r.ev.Emit(obs.Info, "violation.found", map[string]any{
		"worker": w, "path_len": len(p), "schedule_len": len(ce.Schedule),
		"violation": ce.Verdict.Violation, "improved": improved,
	})
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// fail records the first framework error and cancels the exploration.
func (r *engineRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// saveCheckpoint persists one snapshot of the run. The task snapshot is
// taken first: every counter, violation, and dedup entry read afterwards
// describes work that is either complete (and thus reflected in the
// snapshot's counters) or still covered by a snapshotted task — so a resume
// from any checkpoint re-explores a superset of the unfinished work and
// reaches the same verdict. final marks the run finished when no task
// survives (a cancelled or capped run keeps its tasks and stays resumable).
func (r *engineRun) saveCheckpoint(final bool) error {
	start := time.Now()
	tasks := r.fr.snapshot()
	cp := &store.Checkpoint{
		Done:       final && len(tasks) == 0,
		Executions: r.m.execs.Load() - r.base.execs,
		Violations: r.m.violations.Load() - r.base.violations,
		Capped:     r.capped.Load(),
		ElapsedNS:  r.elapsed().Nanoseconds(),
		Tasks:      make([]store.Task, len(tasks)),
	}
	for i, t := range tasks {
		cp.Tasks[i] = store.Task{Path: t.path, Floor: t.floor}
	}
	r.mu.Lock()
	cp.MaxProcSteps = r.maxSteps
	cp.MaxFaults = r.maxFaults
	cp.FirstViolationNS = int64(r.firstAt)
	if r.best != nil {
		cp.BestPath = append([]int(nil), r.best.Path...)
		cp.BestLen = len(r.best.Schedule)
	}
	r.mu.Unlock()
	if r.set != nil {
		cp.Dedup = r.set.Snapshot()
	}
	spanStart := r.tr.Recorder().Begin()
	if err := r.st.Save(cp); err != nil {
		return err
	}
	r.tr.Recorder().End("checkpoint", "checkpoint", -1, -1, spanStart, map[string]any{
		"seq": r.m.ckptSaves.Load() + 1, "tasks": len(cp.Tasks),
		"executions": cp.Executions, "final": final,
	})
	r.m.ckptSaves.Inc()
	r.m.ckptMS.Observe(float64(time.Since(start).Microseconds()) / 1000)
	return nil
}

// startCheckpoint launches the periodic checkpoint writer and returns its
// stop function. A failed write fails the whole run: continuing with a stale
// checkpoint would make a later resume silently wrong.
func (r *engineRun) startCheckpoint(ctx context.Context) func() {
	if r.st == nil {
		return func() {}
	}
	period := r.s.CheckpointEvery
	if period <= 0 {
		period = 5 * time.Second
	}
	return every(ctx, period, func(time.Time) bool {
		if err := r.saveCheckpoint(false); err != nil {
			r.fail(fmt.Errorf("explore: checkpoint: %w", err))
			return false
		}
		return true
	})
}

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
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
)

// Engine is the exploration engine: a frontier of choice-path prefixes
// sharded across workers, each worker replaying the leaves of its subtrees
// independently (an execution is a pure function of protocol, inputs, and
// choice path, so subtrees explore with no shared state beyond the frontier
// and the aggregated outcome; a worker's replay resumes from states it
// saved along its own previous path). What to explore and how — protocol,
// inputs, fault budget, cap, worker count, dedup, metrics, events — comes
// from the run.Settings passed to Check; the Engine holds only what
// settings cannot express.
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
// context.Context cancellation threaded through every replay, workers stop
// promptly once nothing below the bound is left.
//
// With Settings.Dedup, workers additionally fingerprint the canonical
// execution state before each scheduling decision their previous replay did
// not already probe, and abandon subtrees rooted at a state already reached
// by a lexicographically smaller path (see package dedup for the
// canonicalization and the soundness argument, and execState.runLeaf for
// which decisions are probed).
// Deduplication preserves the verdict and the canonical counterexample
// exactly — only Executions becomes dependent on worker interleaving, since
// which of two racing paths reaches a shared state first is
// nondeterministic.
//
// With Store set, the engine periodically persists the frontier and the
// aggregated outcome to the run directory, and primes itself from the stored
// checkpoint on start — an interrupted exploration resumed from its
// checkpoint reports the same verdict and counterexample as an uninterrupted
// one, and, each checkpoint being one consistent cut (saveCheckpoint), the
// same execution count when it completes without dedup. The dedup set is
// not persisted: a resumed run starts with an empty set, which costs
// pruning but cannot change the verdict or the counterexample, since a
// dedup entry only ever lets a subtree be skipped that a strictly smaller
// path of the same run covers.
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
// execution, violation and prune counters are advanced in per-lease batches
// from each worker's local tally (the cap itself is enforced by the
// capPool), so the registry sees exact totals at every lease boundary
// without a shared counter bounce on every replay.
type runMetrics struct {
	execs        *obs.Counter // completed replays (flushed per lease)
	restored     *obs.Counter // executions primed from a resumed checkpoint
	violations   *obs.Counter // violating replays (flushed per lease)
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
// Progress, and checkpoints subtract the tally the run started from.
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

// findings is what an enumeration has established: the reported
// counterexample, when the first violation was replayed, and the observed
// maxima.
type findings struct {
	best      *Counterexample
	firstAt   time.Duration
	maxSteps  int
	maxFaults int
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

// engineRun is the state of one Engine.Check: the settings and what
// prepare resolved from them, the worker and lease sizes, the
// registry-backed counters and the tally they started from, the dedup set,
// the frontier and cap pool, and the findings.
type engineRun struct {
	s           *run.Settings
	kind        fault.Kind
	cap         int
	workers     int
	leaseSize   int64
	stopOnFirst bool
	reg         *obs.Registry
	m           *runMetrics
	set         *dedup.Set   // nil without dedup
	ev          *obs.Log     // nil-safe
	st          *store.Store // nil without checkpointing
	tr          *Tracer      // nil without tracing

	// base is the counters' tally when the run started; start and
	// elapsed0 are its wall clock and the time accumulated before a resume.
	base     tally
	start    time.Time
	elapsed0 time.Duration

	pool *capPool
	fr   *frontier

	capped atomic.Bool
	// bound is the lex-least violating path found so far (pruning bound);
	// nil until a violation is seen or in Exhaustive mode.
	bound atomic.Pointer[[]int]

	mu sync.Mutex
	findings
	err    error
	cancel context.CancelFunc
}

// newRun validates the settings against the engine's attachments and opens
// one run. The registry is Settings.Metrics or a private one: the engine is
// always registry-backed, so Outcome and Progress are views of the same
// counters a live /metrics endpoint reads.
func (e *Engine) newRun(s *run.Settings) (*engineRun, error) {
	kind, cap, err := prepare(s, e.Store)
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
	r := &engineRun{
		s: s, kind: kind, cap: cap,
		workers: workers, leaseSize: leaseSize, stopOnFirst: !e.Exhaustive,
		reg: reg, m: newRunMetrics(reg, workers), ev: s.Events,
		st: e.Store, tr: e.Tracer,
	}
	reg.Gauge("explore.workers").Set(int64(workers))
	if s.Dedup {
		r.set = dedup.NewSet(0)
		r.set.Register(reg)
	}
	r.base, r.start = r.m.tally(), time.Now()
	return r, nil
}

func (r *engineRun) elapsed() time.Duration { return r.elapsed0 + time.Since(r.start) }

// outcome renders the run's counters and findings as an Outcome; finish
// decides Complete.
func (r *engineRun) outcome(f findings) *Outcome {
	d := r.m.since(r.base)
	out := &Outcome{
		Executions:       int(d.execs),
		Violation:        f.best,
		MaxProcSteps:     f.maxSteps,
		MaxFaults:        f.maxFaults,
		Workers:          r.workers,
		Elapsed:          r.elapsed(),
		ViolationLatency: f.firstAt,
		Donations:        d.donations,
		Steals:           d.steals,
		ReducePrunes:     d.reducePrunes,
	}
	if r.set != nil {
		st := r.set.Stats()
		out.Dedup = &st
	}
	return out
}

// finish seals an outcome and logs run.done: a cancelled run is never
// complete and returns ctx's error alongside its partial outcome.
func (r *engineRun) finish(ctx context.Context, out *Outcome, complete bool) (*Outcome, error) {
	fields := map[string]any{
		"executions": out.Executions,
		"elapsed_ms": out.Elapsed.Milliseconds(),
	}
	if err := ctx.Err(); err != nil {
		fields["complete"] = false
		fields["cancelled"] = true
		r.ev.Emit(obs.Warn, "run.done", fields)
		return out, err
	}
	out.Complete = complete
	fields["complete"] = complete
	fields["violations"] = r.m.since(r.base).violations
	r.ev.Emit(obs.Info, "run.done", fields)
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

// startProgress launches the periodic throughput reporter over the run's
// counters and returns its stop function.
func (e *Engine) startProgress(ctx context.Context, r *engineRun) func() {
	if e.Progress == nil {
		return func() {}
	}
	period := e.ProgressEvery
	if period <= 0 {
		period = 2 * time.Second
	}
	var lastExecs int64
	lastTime := r.start
	return every(ctx, period, func(now time.Time) bool {
		d := r.m.since(r.base)
		p := Progress{
			Executions: d.execs,
			Rate:       float64(d.execs-lastExecs) / now.Sub(lastTime).Seconds(),
			Frontier:   r.fr.pending(),
			Violations: d.violations,
			Elapsed:    r.elapsed(),
			Donations:  d.donations,
			Steals:     d.steals,
		}
		lastExecs, lastTime = d.execs, now
		if r.set != nil {
			p.Dedup = r.set.Stats()
		}
		if snap := r.m.depth.Snapshot(); snap.Count > 0 {
			p.DepthP50 = snap.Quantile(0.5)
			p.DepthP99 = snap.Quantile(0.99)
		}
		e.Progress(p)
		return true
	})
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
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r, err := e.newRun(s)
	if err != nil {
		return nil, err
	}
	r.cancel = cancel

	tasks := []task{{}} // root: the empty prefix
	resumed := false
	if r.st != nil {
		r.st.Instrument(r.reg, r.ev)
		if cp := r.st.Checkpoint(); cp != nil {
			if tasks, err = r.prime(cp); err != nil {
				return nil, err
			}
			resumed = true
		}
	}
	// The cap pool: what this process may still execute is the cap minus
	// whatever a resumed checkpoint already accounts for.
	r.pool = newCapPool(max(int64(r.cap)-r.m.since(r.base).execs, 0))
	r.fr = newFrontier(tasks, r.workers)
	for _, t := range tasks {
		r.m.depth.Observe(float64(len(t.path)))
	}
	r.reg.Func("explore.frontier.pending", func() int64 { return int64(r.fr.pending()) })
	r.ev.Emit(obs.Info, "run.start", map[string]any{
		"workers": r.workers, "cap": r.cap, "dedup": s.Dedup,
		"checkpoint": r.st != nil, "resumed": resumed, "tasks": len(tasks),
	})
	stopProgress := e.startProgress(ctx, r)
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
	return r.finish(ctx, r.outcome(f), !r.capped.Load() && (f.best == nil || e.Exhaustive))
}

// prime seeds the run from a stored checkpoint: counters, the best
// counterexample (reconstructed by replaying its path), and the task list
// that covers all unfinished work. The dedup set starts empty.
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
		"best_path_len": len(cp.BestPath),
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

// capPool is the execution-cap pool: workers lease batches of executions
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

// settle returns a lease to the pool: used units are consumed for good,
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

// workerLease is one worker's current slice of the execution cap and its
// tally since the last flush: avail units may still be spent, used units
// are spent but not yet flushed to the shared counters. The violations
// among them and their step and fault maxima ride along, and so do the
// replays pruned by the dedup set (prunes) or the reducer (reducePrunes),
// which spend no unit.
type workerLease struct {
	avail        int64
	used         int64
	violations   int64
	prunes       int64
	reducePrunes int64
	maxSteps     int
	maxFaults    int
}

// flush publishes a worker's locally tallied executions, violations, prunes
// and maxima to the shared counters and findings (with dedup, every one of
// those replays is a leaf lookup of the set) and settles the executions
// with the cap pool. releaseUnused additionally returns the lease's unspent
// units (task exit: the worker is about to block on the frontier and must
// not sit on capacity other workers could spend). Flushing per lease
// instead of per leaf is what keeps the shared counters off the replay hot
// path; per-worker counters and the total advance in the same batch, so the
// report schema's worker-sum invariant (Σ worker executions + restored ==
// total) holds at every flush boundary — in particular in every final
// report, even after cancellation mid-lease. A worker flushes only inside a
// frontier slot update (frontier.publish), which is what makes a
// checkpoint one consistent cut.
func (r *engineRun) flush(w int, l *workerLease, releaseUnused bool) {
	if l.used > 0 {
		r.m.execs.Add(l.used)
		r.m.workerExecs[w].Add(l.used)
	}
	if l.violations > 0 {
		r.m.violations.Add(l.violations)
	}
	if l.prunes > 0 {
		r.m.prunes.Add(l.prunes)
	}
	if l.reducePrunes > 0 {
		r.m.reducePrunes.Add(l.reducePrunes)
	}
	if leaves := l.used + l.prunes + l.reducePrunes; r.set != nil && leaves > 0 {
		r.set.LeafLookup(leaves)
	}
	if l.maxSteps > 0 || l.maxFaults > 0 {
		r.mu.Lock()
		r.maxSteps = max(r.maxSteps, l.maxSteps)
		r.maxFaults = max(r.maxFaults, l.maxFaults)
		r.mu.Unlock()
	}
	var unused int64
	if releaseUnused {
		unused, l.avail = l.avail, 0
	}
	r.pool.settle(l.used, unused)
	*l = workerLease{avail: l.avail}
}

// worker pops subtree tasks and enumerates them until the frontier drains.
// A task that could not be finished (cancellation, execution cap, error)
// stays in the worker's frontier slot so the final checkpoint preserves it;
// the worker then exits rather than claim further tasks it cannot finish.
//
// The replay machinery (chooser, execState with its runner, dedup tracker)
// is per-worker and lives for the worker's whole run — replays allocate
// nothing on their hot path.
func (r *engineRun) worker(ctx context.Context, w int) {
	es := r.newWorkerState()
	l := &workerLease{}
	// The frontier runs these inside its slot updates: flush keeps the
	// lease's unspent units, release returns them.
	flush := func() { r.flush(w, l, false) }
	release := func() { r.flush(w, l, true) }
	for {
		idleStart := time.Now()
		t, ok := r.fr.pop(w)
		r.m.workerIdleNS[w].Add(time.Since(idleStart).Nanoseconds())
		if !ok {
			return
		}
		r.m.steals.Inc()
		r.m.workerSteals[w].Inc()
		finished := r.runSubtree(ctx, w, t, es, l, flush)
		// Settle before blocking on the frontier (or exiting): a worker
		// waiting for work must not sit on leased capacity. An unfinished
		// task stays in the slot at the chooser's position, the first leaf
		// this worker did not run.
		r.fr.release(w, finished, es.c.path, es.c.lb, release)
		if !finished {
			return
		}
	}
}

// newWorkerState builds one worker's replay machinery. Its leaf replays
// record nothing: no trace log, no schedule, and no trace event unless the
// dedup tracker or the reducer observes them.
func (r *engineRun) newWorkerState() *execState {
	var dh *dedupHandle
	if r.set != nil {
		dh = &dedupHandle{
			set:     r.set,
			tracker: dedup.NewTracker(r.s.Protocol.Objects(), r.s.Inputs, true),
		}
	}
	return newExecState(r.s, r.kind, &chooser{}, dh, false)
}

// runSubtree enumerates the subtree task by replaying its leaves in
// depth-first order (each resumes from the deepest state it shares with
// the previous one, see execState.runLeaf), donating sub-subtrees to the
// frontier whenever it runs low. It reports whether the task was finished:
// fully enumerated, or abandoned because no leaf below it can improve the
// canonical counterexample (bound pruning) or because its root state was
// already covered by a smaller path (dedup). An unfinished task returns
// with the chooser at the first leaf whose execution the lease does not
// hold.
//
// Shared state is touched once per lease, not once per leaf: the cap pool,
// the metric counters (executions, violations, prunes, and the dedup set's
// leaf lookups), the maxima, and the frontier slot publish all amortize
// over LeaseSize replays. Between publishes the slot lags the worker by up
// to a lease, and so do the counters: each publish moves both at once (see
// frontier.snapshot).
func (r *engineRun) runSubtree(ctx context.Context, w int, t task, es *execState, l *workerLease, flush func()) bool {
	c := es.c
	c.path = append(c.path[:0], t.path...)
	c.lb = t.floor
	c.changed = 0
	var taskExecs int64
	spanStart := r.tr.Recorder().Begin()
	defer func() {
		r.tr.Recorder().End("task", "worker", w, -1, spanStart, map[string]any{
			"root_depth": len(t.path), "executions": taskExecs,
		})
	}()

	// Poll ctx.Done(), not ctx.Err(): Err locks the context every worker
	// shares (see sim.Stepped.Resume).
	done := ctx.Done()
	for {
		select {
		case <-done:
			return false
		default:
		}
		if r.pruned(c.path) {
			// Replay visits leaves in lexicographic order, so once the
			// next path reaches the bound the rest of the subtree can
			// only contain larger counterexamples.
			return true
		}
		if l.avail == 0 {
			// Lease boundary: flush the spent lease together with the
			// slot's new resume point, then reserve the next batch.
			r.fr.publish(w, false, c.path, c.lb, flush)
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
		stats, pruned, err := es.runLeaf()
		if err != nil {
			r.fail(err)
			return false
		}
		if pruned {
			// The replay halted at a redundant prefix — a state some
			// lex-smaller path already covers (dedup), or a sleep-blocked
			// node (reduction): the subtree below it proves nothing new.
			// No cap unit was spent — Executions counts completed
			// replays, and the pruned replay's unit stays in the lease.
			if es.pruneSleep {
				l.reducePrunes++
				r.debugEvent("reduce.prune", w, "pos", es.prunedAt)
			} else {
				l.prunes++
				r.debugEvent("dedup.prune", w, "pos", es.prunedAt)
			}
			if es.prunedAt <= c.lb {
				return true // the whole task is covered elsewhere
			}
			c.truncate(es.prunedAt)
			if !c.next() {
				return true
			}
			continue
		}
		l.avail--
		l.used++
		taskExecs++
		l.maxSteps = max(l.maxSteps, stats.maxSteps)
		l.maxFaults = max(l.maxFaults, stats.faults)
		// Not es.verdict.OK(): its value receiver copies the verdict.
		if es.verdict.Violation != run.ViolationNone {
			l.violations++
			ce, err := es.keep(stats)
			if err == nil {
				r.recordViolation(w, ce)
				if r.tr != nil {
					if err = r.tr.captureViolation(w, ce.Path, ce); err != nil {
						err = fmt.Errorf("explore: trace capture: %w", err)
					}
				}
			}
			if err != nil {
				r.fail(err)
				// The leaf ran and the lease counts it: the slot resumes
				// past it.
				return !c.next()
			}
		} else if r.tr.sampleHit() {
			ce, err := es.keep(stats)
			if err == nil {
				err = r.tr.captureSample(w, ce.Path, ce)
			}
			if err != nil {
				r.fail(fmt.Errorf("explore: trace capture: %w", err))
				return !c.next()
			}
		}
		var donation task
		if r.fr.starving() {
			// donate raises the chooser's floor past the donated subtree,
			// so next stays out of it.
			donation.path, donation.floor, _ = c.donate()
		}
		more := c.next()
		if donation.path != nil {
			r.m.depth.Observe(float64(len(donation.path)))
			r.m.donations.Inc()
			r.debugEvent("frontier.donate", w, "depth", len(donation.path))
			// Queue the donation, flush the lease, and move the slot to
			// the next leaf (or clear it when none is left) in one step.
			r.fr.donate(w, donation, !more, c.path, c.lb, flush)
		}
		if !more {
			return true
		}
	}
}

// debugEvent emits a Debug event from worker w with one integer field. The
// field map is built only when the log keeps Debug events: the prune and
// donation sites run once per leaf, and a map literal handed to Emit is
// built before Emit can check the level.
func (r *engineRun) debugEvent(typ string, w int, key string, v int) {
	if !r.ev.Enabled(obs.Debug) {
		return
	}
	r.ev.Emit(obs.Debug, typ, map[string]any{"worker": w, key: v})
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
// ce must be self-contained (execState.keep): it is retained
// beyond the replay that produced it.
func (r *engineRun) recordViolation(w int, ce *Counterexample) {
	p := ce.Path
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

// saveCheckpoint persists one snapshot of the run: a consistent cut (see
// frontier.snapshot) of the tasks, the counters and the maxima. A resume
// from any checkpoint runs no leaf the checkpoint counts and skips none it
// does not (bar those a violation bound prunes), so it reaches the same
// verdict and counterexample as an uninterrupted run and, when it completes
// without dedup, the same execution count. The best counterexample may
// come from a leaf past the cut; prime restores it. final marks the run
// finished when no task survives (a cancelled or capped run keeps its
// tasks and stays resumable).
func (r *engineRun) saveCheckpoint(final bool) error {
	start := time.Now()
	cp := &store.Checkpoint{
		Capped:    r.capped.Load(),
		ElapsedNS: r.elapsed().Nanoseconds(),
	}
	tasks := r.fr.snapshot(func() {
		cp.Executions = r.m.execs.Load() - r.base.execs
		cp.Violations = r.m.violations.Load() - r.base.violations
		r.mu.Lock()
		cp.MaxProcSteps = r.maxSteps
		cp.MaxFaults = r.maxFaults
		cp.FirstViolationNS = int64(r.firstAt)
		if r.best != nil {
			cp.BestPath = append([]int(nil), r.best.Path...)
			cp.BestLen = len(r.best.Schedule)
		}
		r.mu.Unlock()
	})
	cp.Done = final && len(tasks) == 0
	cp.Tasks = make([]store.Task, len(tasks))
	for i, t := range tasks {
		cp.Tasks[i] = store.Task{Path: t.path, Floor: t.floor}
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

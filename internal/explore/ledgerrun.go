package explore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/dedup"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/store"
)

// exportLowWater is the ledger-side starvation threshold: while fewer
// unclaimed tasks than this are on offer, claim holders export subtrees so
// joining processes find work quickly.
const exportLowWater = 4

// checkLedger is Check in distributed mode: a claim loop over the work
// ledger. Each claimed subtree runs as its own engineRun (full in-process
// worker pool, fresh violation bound, fresh frontier seeded with the
// claim), flanked by a renewal heartbeat (TTL/3) and an export pump that
// offers surplus frontier tasks to other processes. The claim's outcome is
// published exactly at the lease boundary: Release on success, Abandon on
// cancellation or cap exhaustion, silent discard when fenced — so merged
// counts stay exact whatever this process's fate.
//
// The returned Outcome describes THIS process's contribution (its
// executions, its best counterexample candidate); the global verdict is
// the ledger merge (FinalizeLedger), identical to a single-process run.
func (e *Engine) checkLedger(ctx context.Context, env *runEnv) (*Outcome, error) {
	e.Ledger.Instrument(env.reg, env.ev)
	pr := &ledgerProcess{eng: e, runEnv: env, scope: env.newScope()}
	// Stamp every span this process records with its fleet identity, so
	// exported spans from different OS processes correlate by (worker,
	// ledger epoch) alongside the per-claim (id, epoch) args.
	rec := e.Tracer.Recorder()
	rec.Annotate("worker", e.Ledger.Owner())
	rec.Annotate("ledger_epoch", e.Ledger.Epoch())
	stopProgress := e.startProgress(ctx, env, &pr.scope, pr.pending)
	defer stopProgress()
	stopSnapshots := pr.startSnapshots(ctx)
	defer stopSnapshots()
	env.ev.Emit(obs.Info, "run.start", map[string]any{
		"workers": env.workers, "cap": env.cap, "dedup": env.set != nil,
		"ledger": true, "owner": e.Ledger.Owner(),
	})

	drained := false
	capped := false
loop:
	for ctx.Err() == nil {
		if pr.budget() <= 0 {
			capped = true
			break
		}
		lease, err := e.Ledger.Claim(ctx)
		switch {
		case errors.Is(err, ledger.ErrDrained):
			drained = true
			break loop
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			break loop
		case err != nil:
			return nil, err
		}
		co, err := pr.runClaim(ctx, lease)
		if err != nil {
			return nil, err
		}
		if co.capped {
			capped = true
			break
		}
		if co.published {
			pr.merge(co.findings, e.Exhaustive)
		}
	}
	out := env.outcome(&pr.scope, pr.findings)
	// Drained means GLOBALLY complete: no tasks, no leases, every subtree's
	// result published. Mirror Check's semantics for the violation case.
	return env.finish(ctx, &pr.scope, out, drained && !capped && (pr.best == nil || e.Exhaustive),
		map[string]any{"ledger": true, "drained": drained, "capped": capped})
}

// ledgerProcess is the per-OS-process state of a distributed exploration:
// the shared run environment, the process-wide scope (claims come and go,
// the registry accumulates), and the findings of published claims.
type ledgerProcess struct {
	eng *Engine
	*runEnv
	scope

	cur atomic.Pointer[engineRun] // the live claim's run, for progress
	// claim is the live claim as published in fleet snapshots. Updated
	// with immutable copies on acquire and on every renewal — the snapshot
	// publisher reads it from its own goroutine, so it must never alias
	// the Lease struct the heartbeat mutates in place.
	claim atomic.Pointer[obs.ClaimInfo]

	findings // merged across PUBLISHED claims only
}

// budget is the process's remaining execution allowance: its cap minus
// every execution it has run, across claims, published or discarded.
func (pr *ledgerProcess) budget() int64 {
	return int64(pr.cap) - (pr.m.execs.Load() - pr.base.execs)
}

// pending is the live claim's queued subtree count (0 between claims).
func (pr *ledgerProcess) pending() int {
	if cur := pr.cur.Load(); cur != nil {
		return cur.fr.pending()
	}
	return 0
}

// claimOutcome is the fate of one ledger claim.
type claimOutcome struct {
	published bool // Release succeeded; the claim's counts are in the ledger
	capped    bool // the PROCESS budget ran out during this claim
	findings
}

// runClaim enumerates one claimed subtree with the full worker pool. The
// lease is renewed at TTL/3 for the duration; losing it (ErrFenced) cancels
// the claim context and discards everything the claim tallied. Surplus
// frontier tasks are exported while the ledger runs dry. Exactly one of
// Release / Abandon / fenced-discard ends the lease.
func (pr *ledgerProcess) runClaim(ctx context.Context, lease *ledger.Lease) (*claimOutcome, error) {
	l := pr.eng.Ledger
	claimCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The claim's fleet-visible lifecycle: an immutable ClaimInfo for the
	// snapshot publisher (replaced wholesale on every renewal — the
	// heartbeat goroutine mutates the Lease in place, so the publisher
	// must never read it), claim.* events keyed by (claim id, epoch,
	// worker, ledger epoch), and one "claim" span per claim so a subtree's
	// crash → reap → re-enqueue at epoch+1 can be followed across the
	// processes' exported artifacts.
	acquired := time.Now()
	pr.claim.Store(&obs.ClaimInfo{
		ID: lease.ID, Epoch: lease.Epoch,
		StartedUnixNano:      acquired.UnixNano(),
		LeaseExpiresUnixNano: lease.ExpiresUnixNano,
	})
	defer pr.claim.Store((*obs.ClaimInfo)(nil))
	pr.ev.Emit(obs.Info, "claim.acquire", map[string]any{
		"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		"ledger_epoch": l.Epoch(), "path_len": len(lease.Path), "floor": lease.Floor,
		"expires_unix_nano": lease.ExpiresUnixNano,
	})
	rec := pr.eng.Tracer.Recorder()
	spanStart := rec.Begin()

	// Overfill the local frontier by the ledger's low-water mark so the
	// export pump finds surplus subtrees to give away without racing local
	// workers for the last queued task.
	r := pr.eng.newRun(pr.runEnv, 2*pr.workers+exportLowWater, cancel)
	var dedupBase dedup.Stats
	if pr.set != nil {
		dedupBase = pr.set.Stats()
	}
	r.seed([]task{{path: append([]int(nil), lease.Path...), floor: lease.Floor}}, pr.budget())
	pr.cur.Store(r)
	defer pr.cur.Store((*engineRun)(nil))

	// settle seals the claim's observable lifecycle: one claim.release
	// event and one "claim" span, both carrying the disposition the lease
	// actually ended with (published | fenced | abandoned | error).
	settle := func(disposition string) {
		execs := pr.m.execs.Load() - r.base.execs
		pr.ev.Emit(obs.Info, "claim.release", map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
			"ledger_epoch": l.Epoch(), "disposition": disposition, "executions": execs,
		})
		rec.End("claim", "ledger", -1, -1, spanStart, map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch,
			"disposition": disposition, "executions": execs,
		})
	}

	// Renewal heartbeat: keep the lease alive at TTL/3; on fencing, stop
	// the claim immediately — its work can no longer be published.
	var fenced atomic.Bool
	period := l.TTL() / 3
	if period <= 0 {
		period = time.Second
	}
	stopRenew := every(claimCtx, period, func(time.Time) bool {
		if err := l.Renew(lease); err != nil {
			if errors.Is(err, ledger.ErrFenced) {
				fenced.Store(true)
				cancel()
				return false
			}
			// Transient I/O: the lease may still be within TTL; retry
			// next tick rather than killing the claim.
			pr.ev.Emit(obs.Warn, "ledger.renew_error", map[string]any{
				"id": lease.ID, "err": err.Error(),
			})
			return true
		}
		// A fresh immutable copy for the snapshot publisher: the renewed
		// expiry is read here, in the renewing goroutine, never from the
		// publisher's.
		pr.claim.Store(&obs.ClaimInfo{
			ID: lease.ID, Epoch: lease.Epoch,
			StartedUnixNano:      acquired.UnixNano(),
			LeaseExpiresUnixNano: lease.ExpiresUnixNano,
		})
		pr.ev.Emit(obs.Debug, "claim.renew", map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
			"expires_unix_nano": lease.ExpiresUnixNano,
		})
		return true
	})
	// Export pump: while the ledger offers fewer tasks than other processes
	// could claim, give away the oldest (largest) queued subtree. The pump
	// runs at a fraction of the TTL, matching the cadence at which idle
	// participants poll for work.
	pump := min(max(l.TTL()/20, 2*time.Millisecond), 50*time.Millisecond)
	stopPump := every(claimCtx, pump, func(time.Time) bool {
		if !l.Starving(exportLowWater) {
			return true
		}
		t, ok := r.fr.takeOldest()
		if !ok {
			return true
		}
		switch {
		case ledger.TaskID(t.path, t.floor) == lease.ID:
			// The claim's own root task, still queued before any worker
			// popped it. Exporting it would fence this very claim; keep it
			// local.
			r.fr.settleExport(&t)
		case l.Export(lease, t.path, t.floor) != nil:
			r.fr.settleExport(&t)
		default:
			r.fr.settleExport(nil)
		}
		return true
	})
	r.runWorkers(claimCtx)
	stopRenew()
	stopPump()

	f, runErr := r.result()
	co := &claimOutcome{findings: f}
	abandon := func() error {
		if err := l.Abandon(lease); err != nil {
			settle("error")
			return err
		}
		pr.ev.Emit(obs.Info, "claim.abandon", map[string]any{
			"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		})
		settle("abandoned")
		return nil
	}
	switch {
	case runErr != nil:
		// Framework error: put the subtree back for someone else before
		// failing this process.
		l.Abandon(lease)
		settle("error")
		return nil, runErr
	case fenced.Load():
		// Renew already dropped the lease; every counter this claim moved
		// is excluded simply by never publishing.
		settle("fenced")
		return co, nil
	case ctx.Err() != nil:
		if err := abandon(); err != nil {
			return nil, err
		}
		return co, nil
	case r.capped.Load():
		// The PROCESS budget ran out mid-claim: the subtree is not fully
		// enumerated, so its partial tally must not be published.
		if err := abandon(); err != nil {
			return nil, err
		}
		co.capped = true
		return co, nil
	}

	res := &ledger.Result{
		Executions:   pr.m.execs.Load() - r.base.execs,
		Violations:   pr.m.violations.Load() - r.base.violations,
		MaxProcSteps: f.maxSteps,
		MaxFaults:    f.maxFaults,
		ElapsedNS:    time.Since(r.start).Nanoseconds(),
	}
	if f.best != nil {
		res.HasBest = true
		res.BestPath = append([]int(nil), f.best.Path...)
		res.BestLen = len(f.best.Schedule)
	}
	if pr.set != nil {
		st := pr.set.Stats()
		res.DedupHits = st.Hits - dedupBase.Hits
	}
	switch err := l.Release(lease, res); {
	case errors.Is(err, ledger.ErrFenced):
		settle("fenced")
		return co, nil
	case err != nil:
		settle("error")
		return nil, err
	}
	pr.ev.Emit(obs.Info, "claim.publish", map[string]any{
		"claim": lease.ID, "epoch": lease.Epoch, "worker": l.Owner(),
		"executions": res.Executions, "violations": res.Violations, "has_best": res.HasBest,
	})
	settle("published")
	co.published = true
	return co, nil
}

// startSnapshots periodically publishes this worker's fleet snapshot —
// registry dump, heartbeat, current claim — into <run>/obs/ via the
// store's atomic write discipline, at the lease renewal cadence (TTL/3).
// A final snapshot on stop records the worker's finished state, so a
// cleanly exited worker shows its full contribution rather than a stale
// mid-run heartbeat. Publishing is best-effort: a failed write is a warn
// event, never a run failure.
func (pr *ledgerProcess) startSnapshots(ctx context.Context) func() {
	e := pr.eng
	if !e.FleetSnapshots {
		return func() {}
	}
	dir, err := store.ObsDir(e.Ledger.RunDir())
	if err != nil {
		pr.ev.Emit(obs.Warn, "fleet.snapshot_error", map[string]any{"err": err.Error()})
		return func() {}
	}
	name := store.WorkerSnapshotName(e.Ledger.Owner())
	period := e.Ledger.TTL() / 3
	if period <= 0 {
		period = time.Second
	}
	publish := func() {
		ws := &obs.WorkerSnapshot{
			Schema:            obs.WorkerSnapshotSchema,
			Worker:            e.Ledger.Owner(),
			PID:               os.Getpid(),
			LedgerEpoch:       e.Ledger.Epoch(),
			StartedUnixNano:   pr.start.UnixNano(),
			HeartbeatUnixNano: time.Now().UnixNano(),
			Claim:             pr.claim.Load(),
			Metrics:           pr.reg.Snapshot(),
		}
		data, err := ws.Encode()
		if err == nil {
			err = store.WriteFileAtomic(dir, name, data)
		}
		if err != nil {
			pr.ev.Emit(obs.Warn, "fleet.snapshot_error", map[string]any{"err": err.Error()})
		}
	}
	publish() // an immediately visible worker beats a TTL/3 blind spot
	stop := every(ctx, period, func(time.Time) bool {
		publish()
		return true
	})
	return func() {
		stop()
		publish()
	}
}

// FinalizeLedger deterministically merges every published result in the run
// directory's ledger into the global outcome — identical to a
// single-process run's verdict: summed executions (exact for covering
// sweeps with dedup off, "modulo dedup" otherwise), maxima folded by max,
// and the canonical counterexample reconstructed by replaying the merged
// mode-least violating path. It refuses (*ledger.IncompleteError) while
// unclaimed tasks or leases remain. Outcome.Workers reports the number of
// participant processes.
func FinalizeLedger(s *run.Settings, runDir string, exhaustive bool) (*Outcome, *ledger.Merged, error) {
	m, err := ledger.Merge(runDir, exhaustive)
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{
		Executions:   int(m.Executions),
		MaxProcSteps: m.MaxProcSteps,
		MaxFaults:    m.MaxFaults,
		Workers:      len(m.Participants),
		Elapsed:      time.Duration(m.ElapsedNS),
		Complete:     !m.Capped && (!m.HasBest || exhaustive),
	}
	if m.HasBest {
		ce, err := Replay(s, m.BestPath)
		if err != nil {
			return nil, nil, fmt.Errorf("explore: finalize: replaying merged counterexample: %w", err)
		}
		if ce.Verdict.OK() {
			return nil, nil, fmt.Errorf("explore: finalize: merged counterexample path %v no longer violates — the run directory does not match this configuration", m.BestPath)
		}
		out.Violation = ce
	}
	return out, m, nil
}

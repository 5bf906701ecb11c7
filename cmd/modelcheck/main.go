// Command modelcheck exhaustively explores the execution tree of a
// consensus protocol under an (f, t) overriding/silent fault budget,
// reporting either complete verification or a minimal counterexample trace.
//
// Examples:
//
//	modelcheck -proto figure3 -f 1 -t 1 -n 2            # Theorem 6, exhaustive
//	modelcheck -proto figure3 -f 1 -t 1 -n 3            # Theorem 19 violation
//	modelcheck -proto figure1 -n 3 -unbounded           # Theorem 18 violation
//	modelcheck -proto silent-retry -t 2 -n 2 -fault silent
//
// Long explorations survive interruption: -checkpoint periodically persists
// the exploration frontier to a run directory, and -resume continues it —
// after a crash, a kill, or an expired -deadline — with the identical final
// verdict. -resume reconstructs the protocol settings from the stored
// manifest and refuses flags that contradict it.
//
//	modelcheck -proto figure3 -f 2 -n 3 -checkpoint run/ -deadline 10s
//	modelcheck -resume run/                              # pick up where it died
//
// Distributed exploration (docs/MODEL.md, "Distributed exploration"):
// -ledger joins any number of OS processes into one sweep over a shared work
// ledger in the run directory; workers claim subtrees under expiring leases,
// so a SIGKILLed participant forfeits only its current claim to the
// survivors. -ledger-finalize merges the drained ledger into the exact
// verdict a single process would have reported.
//
//	modelcheck -proto figure3 -f 1 -n 2 -unbounded -ledger run/ &
//	modelcheck -ledger run/ &                            # settings from the manifest
//	wait; modelcheck -ledger-finalize run/
//
// Fleet observability (docs/MODEL.md, "Fleet observability"): each ledger
// worker publishes periodic metrics snapshots into the shared run
// directory; -fleet-status renders the merged fleet view — per-worker
// liveness, summed counters, flagged anomalies — of any ledger run
// directory without joining it, and /fleet (JSON) plus /fleet/dashboard
// (text) serve the same view from any worker's -http endpoint.
//
//	modelcheck -fleet-status run/                        # or -fleet-status run/ -json
//
// Observability (docs/MODEL.md, "Observability"): -http serves the live
// metric snapshot, the latest progress report, and pprof while the
// exploration runs; -events streams the structured run event log as JSONL;
// -report writes the machine-readable final run report that
// scripts/bench.sh consumes.
//
//	modelcheck -proto figure3 -f 2 -n 3 -http :6060 -progress 2s
//	modelcheck -proto figure3 -f 1 -n 2 -report out.json -events run.jsonl
//
// Execution tracing (docs/MODEL.md, "Execution tracing"): -trace captures
// every violating execution (and a 1-in-N sample of passing ones with
// -trace-sample) into a directory as replayable trace/v1 JSONL plus
// Perfetto-loadable JSON; -explain verifies a captured trace by replay and
// narrates the counterexample; -profile-dir records CPU and heap profiles
// of the exploration itself.
//
//	modelcheck -proto figure3 -f 2 -n 3 -trace traces/ -trace-sample 1000
//	modelcheck -explain traces/violation-000001.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/run"
	"repro/internal/store"
)

func main() {
	// The configuration flags (settingsFlags) are read back by name, so a
	// run manifest can stand in for any of them.
	var (
		_         = flag.String("proto", "figure3", "protocol: figure1 | figure2 | figure3 | silent-retry")
		_         = flag.Int("f", 1, "fault parameter f")
		_         = flag.Int("t", 1, "per-object fault bound t")
		_         = flag.Int("n", 2, "number of processes")
		_         = flag.String("fault", "overriding", "fault kind: overriding | silent")
		engine    = flag.String("engine", "auto", "execution form: auto | compiled | interpreted (goroutine reference)")
		_         = flag.String("reduce", "off", "partial-order reduction: off | on (sleep sets + symmetry; keeps verdict and lex-least counterexample) | aggressive (adds footprint persistent sets; verdict only, compiled form required)")
		_         = flag.Bool("unbounded", false, "unbounded faults per faulty object")
		_         = flag.Int("faulty", -1, "number of faulty objects (default: all of the protocol's objects)")
		maxExecs  = flag.Int("max", explore.DefaultMaxExecutions, "execution cap")
		workers   = flag.Int("workers", 0, "parallel exploration workers (0 = GOMAXPROCS); results are identical for any value")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for the exploration (0 = none), e.g. 30s")
		progress  = flag.Duration("progress", 0, "print throughput reports at this interval (0 = off), e.g. 2s")
		_         = flag.Bool("dedup", false, "prune subtrees rooted at already-visited canonical states")
		checkpt   = flag.String("checkpoint", "", "create a run directory there and checkpoint the exploration into it")
		ckptEvery = flag.Duration("checkpoint-every", 0, "checkpoint period (default 5s)")
		resume    = flag.String("resume", "", "resume the exploration recorded in this run directory")
		ledgerF   = flag.String("ledger", "", "join (or create) the multi-process work ledger in this run directory and explore cooperatively")
		workerID  = flag.String("worker-id", "", "name of this ledger participant (default host:pid); must be unique among live participants")
		leaseTTL  = flag.Duration("lease-ttl", 0, "ledger lease time-to-live when creating a ledger (default 5s); later joiners adopt the creator's TTL")
		finalizeF = flag.String("ledger-finalize", "", "merge the drained work ledger in this run directory into the final verdict, then exit")
		fleetF    = flag.String("fleet-status", "", "print the fleet observability view of this ledger run directory (per-worker liveness, merged metrics, anomalies), then exit; -json for the machine-readable view")
		fleetSnap = flag.Bool("fleet-snapshots", true, "on a ledger run, periodically publish this worker's metrics snapshot into <run>/obs/ for -fleet-status and /fleet")
		jsonOut   = flag.Bool("json", false, "emit the counterexample trace as JSON")
		diagram   = flag.Bool("diagram", false, "render the counterexample as a space-time diagram")
		httpAddr  = flag.String("http", "", "serve live introspection (/metrics, /progress, /pprof/) on this address while exploring, e.g. :6060")
		reportOut = flag.String("report", "", "write the machine-readable final run report (JSON) to this file")
		eventsOut = flag.String("events", "", "write the structured run event log (JSONL) to this file, or '-' for stderr")
		eventsMin = flag.String("events-level", "info", "minimum event level: debug | info | warn | error")
		traceDir  = flag.String("trace", "", "capture execution traces (trace/v1 JSONL + Perfetto JSON) into this directory; violations are always captured")
		traceN    = flag.Int("trace-sample", 0, "with -trace, also capture one in N passing executions (0 = violations only)")
		explainF  = flag.String("explain", "", "verify the trace/v1 file by replay and narrate the counterexample, then exit")
		profDir   = flag.String("profile-dir", "", "write cpu.pprof and heap.pprof profiles of the exploration into this directory")
	)
	flag.Parse()

	if *explainF != "" {
		// The capture replays through the form that produced it; an explicit
		// -engine must match the recording or the replay is refused — it
		// would be evidence about an engine that never ran this execution.
		mode, err := run.ParseExecMode(strings.ToLower(*engine))
		if err != nil {
			fail("%v", err)
		}
		if err := explore.ExplainFileAs(os.Stdout, *explainF, mode); err != nil {
			fail("%v", err)
		}
		return
	}

	if *fleetF != "" {
		// One-shot fleet inspection: read-only over the run directory's
		// worker snapshots and ledger, no worker needed, no join.
		view, err := fleet.Load(*fleetF)
		if err != nil {
			fail("%v", err)
		}
		if *jsonOut {
			data, err := json.MarshalIndent(view, "", "  ")
			if err != nil {
				fail("%v", err)
			}
			os.Stdout.Write(data)
			fmt.Println()
		} else {
			fmt.Print(view.Dashboard())
		}
		return
	}

	// SIGINT/SIGTERM cancel the exploration context instead of killing the
	// process. The handler is installed before the run directory is touched
	// and held until every output file is sealed, so a signal at any moment
	// ends in flushed, well-formed files.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *resume != "" && *checkpt != "" {
		fail("use either -checkpoint (new run) or -resume (existing run), not both")
	}
	if *ledgerF != "" && (*checkpt != "" || *resume != "") {
		fail("the work ledger is the durable state of a distributed run; -ledger cannot be combined with -checkpoint or -resume")
	}
	if *finalizeF != "" && (*ledgerF != "" || *checkpt != "" || *resume != "") {
		fail("-ledger-finalize merges a finished run on its own; combine it only with output flags")
	}

	// At most one run directory is named (checked above); its manifest
	// supplies every setting the flags leave out.
	s, flagMeta := settingsFromFlags(*resume+*ledgerF+*finalizeF, *ledgerF != "")
	compiled, err := run.ResolveExec(s.Exec, s.Protocol)
	if err != nil {
		fail("%v", err)
	}
	execLabel := run.ExecLabel(compiled)

	if *finalizeF != "" {
		finalizeLedger(s, *finalizeF, execLabel, *jsonOut, *diagram, *reportOut,
			reportMeta(flagMeta, s, execLabel))
		return
	}

	s.MaxExecutions = *maxExecs
	s.Workers = *workers
	s.CheckpointDir, s.CheckpointEvery, s.Resume = *checkpt, *ckptEvery, *resume
	s.LedgerDir, s.WorkerID, s.LeaseTTL = *ledgerF, *workerID, *leaseTTL
	s.TraceDir, s.TraceSample = *traceDir, *traceN
	eng := &explore.Engine{FleetSnapshots: *fleetSnap}
	if err := eng.Attach(s); err != nil {
		fail("%v", err)
	}

	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	profiles, err := startProfiles(*profDir)
	if err != nil {
		fail("%v", err)
	}
	// The registry backs the engine's counters whether or not anything
	// reads it: Outcome, -http, and -report are all views of one counter set.
	reg := obs.NewRegistry()
	var events *obs.Log
	if *eventsOut != "" {
		lvl, err := obs.ParseLevel(*eventsMin)
		if err != nil {
			fail("%v", err)
		}
		w := io.Writer(os.Stderr)
		if *eventsOut != "-" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			w = f
		}
		events = obs.NewLog(w, lvl)
	}
	s.Metrics, s.Events = reg, events
	// Progress goes to stderr through one buffered writer so report lines
	// never interleave with the verdict on stdout; the final report is
	// flushed before any result is printed. The reporter also retains the
	// latest report for the -http /progress endpoint, so the engine's
	// periodic callback runs whenever either consumer exists.
	rep := newProgressReporter(os.Stderr)
	if *progress > 0 {
		eng.ProgressEvery = *progress
	}
	if *progress > 0 || *httpAddr != "" {
		eng.Progress = func(p explore.Progress) { rep.tick(p, *progress > 0) }
		if eng.Ledger != nil && *progress > 0 {
			// On a ledger run each progress tick also reports the fleet:
			// who has joined, which leases are live or forfeited, and how
			// much is already merged into published results. The status is
			// served through the fleet aggregator's cache — a full
			// ledger.Status is a directory scan that grows with task and
			// result count, so ticks within half a TTL reuse one scan.
			cache := fleet.NewStatusCache(*ledgerF, eng.Ledger.TTL()/2)
			eng.Progress = func(p explore.Progress) {
				rep.tick(p, true)
				rep.ledgerLine(cache)
			}
		}
	}
	if *httpAddr != "" {
		mux := obs.Handler(reg, rep.latest)
		endpoints := "/metrics /progress /healthz /pprof/"
		if eng.Ledger != nil {
			// Any worker can answer for the whole fleet: the view is
			// rebuilt from the shared run directory per request.
			fleet.Attach(mux, *ledgerF)
			endpoints += " /fleet /fleet/dashboard"
		}
		addr, shutdown, err := obs.Serve(*httpAddr, mux)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "modelcheck: introspection on http://%s (%s)\n", addr, endpoints)
		defer shutdown() //nolint:errcheck // exiting anyway
	}
	out, err := eng.Check(ctx, s)
	deadlineHit := errors.Is(err, context.DeadlineExceeded)
	interrupted := errors.Is(err, context.Canceled)
	if cerr := eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && !deadlineHit && !interrupted {
		rep.flush()
		events.Flush() //nolint:errcheck // already failing
		fail("%v", err)
	}
	if *progress > 0 {
		// Final progress line: the periodic reporter stops between ticks,
		// so without this the last report understates the finished run.
		rep.final(out)
	}
	// Everything reported so far belongs before the verdict.
	rep.flush()
	// The event log and report are written before the human-readable
	// verdict so they exist even when a violation exits non-zero below.
	if err := events.Flush(); err != nil {
		fail("event log: %v", err)
	}
	if *reportOut != "" {
		meta := reportMeta(flagMeta, s, execLabel)
		meta["workers"] = strconv.Itoa(out.Workers)
		meta["max"] = strconv.Itoa(*maxExecs)
		if err := obs.WriteReport(*reportOut, buildReport(out, reg, events, meta)); err != nil {
			fail("%v", err)
		}
	}
	if err := profiles.stop(); err != nil {
		fail("%v", err)
	}
	// Every file is sealed; from here on a signal kills the process the
	// ordinary way.
	stopSignals()

	fmt.Printf("protocol    : %s (%s form)\n", s.Protocol.Name(), execLabel)
	fmt.Printf("processes   : %d, faulty objects: %v, faults/object: %s\n",
		len(s.Inputs), s.FaultyObjects, tString(s.FaultsPerObject))
	fmt.Printf("executions  : %d (complete: %v)\n", out.Executions, out.Complete)
	fmt.Printf("max steps   : %d per process, max faults: %d per execution\n",
		out.MaxProcSteps, out.MaxFaults)
	if secs := out.Elapsed.Seconds(); secs > 0 {
		fmt.Printf("engine      : %d workers, %.0f paths/sec, %s elapsed\n",
			out.Workers, float64(out.Executions)/secs, out.Elapsed.Round(time.Millisecond))
	}
	if out.Dedup != nil {
		fmt.Printf("dedup       : %d states, %d of %d replays pruned (%.1f%% hit rate)\n",
			out.Dedup.States, out.Dedup.Hits, out.Dedup.LeafLookups, 100*out.Dedup.HitRate())
	}
	if s.Reduce != run.ReduceOff {
		fmt.Printf("reduce      : %s, %d sleep-blocked subtrees pruned\n",
			s.Reduce, out.ReducePrunes)
	}
	if deadlineHit {
		fmt.Printf("deadline    : %s exceeded — partial exploration\n", *deadline)
	}
	if interrupted {
		fmt.Printf("interrupted : signal received — partial exploration, state flushed cleanly\n")
	}
	if eng.Tracer != nil {
		ts := eng.Tracer.Summary()
		fmt.Printf("trace       : %d violation(s), %d sample(s), %d span(s) captured in %s\n",
			ts.Violations, ts.Samples, ts.Spans, ts.Dir)
		if ts.Skipped > 0 {
			fmt.Printf("trace       : %d further violating executions not captured (cap %d)\n",
				ts.Skipped, explore.MaxViolationCaptures)
		}
	}
	if *profDir != "" {
		fmt.Printf("profiles    : cpu.pprof and heap.pprof written to %s\n", *profDir)
	}
	if eng.Store != nil {
		dir := eng.Store.Dir()
		if deadlineHit || (!out.Complete && out.Violation == nil) {
			fmt.Printf("checkpoint  : saved to %s — continue with: modelcheck -resume %s\n", dir, dir)
		} else {
			fmt.Printf("checkpoint  : finished run recorded in %s\n", dir)
		}
	}
	if eng.Ledger != nil {
		if rs, rserr := ledger.Status(*ledgerF); rserr == nil {
			if rs.Drained {
				fmt.Printf("ledger      : drained — %d participant(s), %d subtree result(s) in %s\n",
					len(rs.Participants), rs.Results, *ledgerF)
			} else {
				fmt.Printf("ledger      : %d task(s) pending, %d live / %d expired lease(s) in %s\n",
					rs.TasksPending, rs.LeasesLive, rs.LeasesExpired, *ledgerF)
			}
		}
	}

	if out.Violation == nil {
		if eng.Ledger != nil {
			// This worker's published claims hold no counterexample, but
			// another participant's might: the authoritative verdict is the
			// merged fold over every published result.
			fmt.Printf("result      : WORKER DONE — merged verdict via: modelcheck -ledger-finalize %s\n", *ledgerF)
			return
		}
		switch {
		case out.Complete:
			fmt.Println("result      : VERIFIED — no execution violates consensus")
		case deadlineHit:
			fmt.Println("result      : NO VIOLATION FOUND (deadline exceeded; raise -deadline for certainty)")
		case interrupted:
			fmt.Println("result      : NO VIOLATION FOUND (interrupted; resume or re-run for certainty)")
		default:
			fmt.Println("result      : NO VIOLATION FOUND (cap reached; increase -max for certainty)")
		}
		return
	}

	fmt.Printf("result      : VIOLATION (%s)\n", out.Violation.Verdict.Violation)
	if out.ViolationLatency > 0 {
		fmt.Printf("latency     : first counterexample after %s\n", out.ViolationLatency.Round(time.Millisecond))
	}
	fmt.Println()
	if *diagram {
		fmt.Print(out.Violation.Trace.Diagram())
		fmt.Println()
	}
	if *jsonOut {
		data, err := json.MarshalIndent(out.Violation.Trace, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(out.Violation.String())
	}
	os.Exit(1)
}

// progressReporter owns the stderr throughput line. The periodic engine
// callback and the final post-run flush render through the same formatter,
// and the latest report is retained for the -http /progress endpoint.
type progressReporter struct {
	w    *bufio.Writer
	last atomic.Pointer[explore.Progress]
}

func newProgressReporter(w io.Writer) *progressReporter {
	return &progressReporter{w: bufio.NewWriter(w)}
}

// tick records the engine's periodic report and, when print is set,
// renders it.
func (r *progressReporter) tick(p explore.Progress, print bool) {
	r.last.Store(&p)
	if print {
		r.line(p)
		r.flush()
	}
}

// latest returns the most recent progress report (nil before the first),
// shaped for the /progress endpoint.
func (r *progressReporter) latest() any {
	if p := r.last.Load(); p != nil {
		return *p
	}
	return nil
}

// final renders the finished run as one last progress line, so the output
// never understates a run that ended between periodic ticks.
func (r *progressReporter) final(out *explore.Outcome) {
	p := explore.Progress{
		Executions: int64(out.Executions),
		Elapsed:    out.Elapsed,
		Donations:  out.Donations,
		Steals:     out.Steals,
	}
	if secs := out.Elapsed.Seconds(); secs > 0 {
		p.Rate = float64(out.Executions) / secs
	}
	if out.Dedup != nil {
		p.Dedup = *out.Dedup
	}
	r.line(p)
	r.flush()
}

func (r *progressReporter) line(p explore.Progress) {
	fmt.Fprintf(r.w, "progress: %d executions, %.0f paths/sec, frontier %d, %d donated/%d stolen, %s elapsed",
		p.Executions, p.Rate, p.Frontier, p.Donations, p.Steals, p.Elapsed.Round(time.Millisecond))
	if p.DepthP99 > 0 {
		fmt.Fprintf(r.w, ", depth p50/p99 %.0f/%.0f", p.DepthP50, p.DepthP99)
	}
	if p.Dedup.Lookups > 0 {
		fmt.Fprintf(r.w, ", dedup %d states %.1f%% hits",
			p.Dedup.States, 100*p.Dedup.HitRate())
	}
	fmt.Fprintln(r.w)
}

// ledgerLine renders the fleet view of a ledger run underneath the local
// progress line: participants, lease liveness, and the merged totals so
// far. The status comes through the fleet aggregator's cache, so back-to-
// back ticks do not each rescan the ledger directories.
func (r *progressReporter) ledgerLine(cache *fleet.StatusCache) {
	rs, err := cache.Status()
	if err != nil {
		return // the ledger is being torn down or not yet created; skip the line
	}
	fmt.Fprintf(r.w, "ledger:   %d participant(s) %v, %d live / %d expired lease(s), %d task(s) pending, %d result(s) merged (%d executions, %d violations)\n",
		len(rs.Participants), rs.Participants, rs.LeasesLive, rs.LeasesExpired,
		rs.TasksPending, rs.Results, rs.MergedExecutions, rs.MergedViolations)
	r.flush()
}

func (r *progressReporter) flush() { r.w.Flush() } //nolint:errcheck // stderr

// settingsFlags are the flags that describe the explored configuration.
// They map onto the keys of run.MetaFromSettings ("engine" onto the sealed
// "exec"), so a run directory's manifest restores them.
var settingsFlags = []string{"proto", "f", "t", "n", "fault", "unbounded", "faulty", "dedup", "engine", "reduce"}

// settingsFromFlags builds the explored configuration from the flags, and
// returns the flag values it was built from (keyed by flag name). dir, when
// set, is a run directory whose manifest supplies every setting not given
// explicitly; an explicit flag that contradicts it is refused — a run
// directory continues only with the settings it was created with. The first
// participant of a new ledger (mayCreate) finds no manifest yet and keeps
// its own flags. Only the manifest is read, not the checkpoint.
func settingsFromFlags(dir string, mayCreate bool) (*run.Settings, map[string]string) {
	meta := map[string]string{}
	for _, name := range settingsFlags {
		meta[name] = strings.ToLower(flag.Lookup(name).Value.String())
	}
	if dir != "" {
		m, err := store.ReadManifest(dir)
		switch {
		case err == nil:
			restoreFlags(meta, m.Extra)
		case errors.Is(err, fs.ErrNotExist) && mayCreate:
		default:
			fail("%v", err)
		}
	}
	return settingsFromMeta(meta), meta
}

// settingsFromMeta builds settings from flag values keyed by flag name:
// run.SettingsFromMeta, plus the -engine and -dedup flags it does not read.
func settingsFromMeta(meta map[string]string) *run.Settings {
	s, err := run.SettingsFromMeta(meta, nil)
	if err != nil {
		fail("%v", err)
	}
	if s.Exec, err = run.ParseExecMode(meta["engine"]); err != nil {
		fail("%v", err)
	}
	s.Dedup = meta["dedup"] == "true"
	return s
}

// restoreFlags overlays a run manifest's recorded settings onto the flag
// values in meta, failing on an explicitly set flag that contradicts them.
// A flag contradicts the manifest only if it changes the settings: both
// sides are compared as run.MetaFromSettings renders them, so an alias
// (-proto staged), -faulty -1, or an f or t the protocol ignores repeats
// the creating command line without contradicting it.
func restoreFlags(meta, extra map[string]string) {
	explicit := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	given := maps.Clone(meta)
	for _, name := range settingsFlags {
		v, ok := extra[name]
		if !ok && name == "engine" {
			v, ok = extra["exec"]
		}
		if ok {
			meta[name] = strings.ToLower(v)
		}
	}
	recorded := run.MetaFromSettings(settingsFromMeta(meta))
	for _, name := range settingsFlags {
		// -engine auto accepts whichever form the manifest recorded.
		if !explicit[name] || given[name] == meta[name] || (name == "engine" && given[name] == "auto") {
			continue
		}
		trial := maps.Clone(meta)
		trial[name] = given[name]
		if !maps.Equal(run.MetaFromSettings(settingsFromMeta(trial)), recorded) {
			fail("-%s %s contradicts the run manifest (%s=%s); a run directory resumes only with the settings it was created with",
				name, given[name], name, meta[name])
		}
	}
}

// reportMeta renders the -report Run section: the settings flags as given
// or restored from the run manifest, the resolved execution form, and the
// reduction mode.
func reportMeta(flags map[string]string, s *run.Settings, execLabel string) map[string]string {
	meta := maps.Clone(flags)
	meta["exec"] = execLabel
	meta["reduce"] = s.Reduce.String()
	return meta
}

// finalizeLedger merges the drained work ledger in dir into the final
// verdict and renders it exactly as a single-process run would: VERIFIED
// exits 0, a violation prints the replayed counterexample and exits 1, and
// an incomplete ledger (pending tasks or leases) reports who is still
// working and exits 2.
func finalizeLedger(s *run.Settings, dir, execLabel string, jsonOut, diagram bool, reportOut string, meta map[string]string) {
	out, merged, err := explore.FinalizeLedger(s, dir, false)
	var inc *ledger.IncompleteError
	if errors.As(err, &inc) {
		if rs, serr := ledger.Status(dir); serr == nil {
			fmt.Fprintf(os.Stderr, "modelcheck: participants %v, %d live / %d expired lease(s), %d result(s) published so far\n",
				rs.Participants, rs.LeasesLive, rs.LeasesExpired, rs.Results)
		}
		fail("%v", err)
	}
	if err != nil {
		fail("%v", err)
	}

	if reportOut != "" {
		// The finalize report mirrors the single-process -report so
		// scripts/bench.sh consumes either: merged counters stand in for
		// the live registry, and the fleet shape rides in the Run section.
		reg := obs.NewRegistry()
		reg.Counter("explore.violations").Add(merged.Violations)
		meta["workers"] = strconv.Itoa(out.Workers)
		meta["ledger_participants"] = strconv.Itoa(len(merged.Participants))
		meta["ledger_results"] = strconv.Itoa(merged.Results)
		meta["ledger_reclaims"] = strconv.FormatInt(merged.Reclaims, 10)
		meta["ledger_total_work_ns"] = strconv.FormatInt(merged.TotalWorkNS, 10)
		rep := buildReport(out, reg, nil, meta)
		// The fleet section (modelcheck-fleet-report/v1) preserves the
		// worker fleet's final shape — per-worker snapshots, liveness,
		// anomalies — in the durable report. Best-effort: a run whose
		// workers never published snapshots still reports the ledger view.
		if fv, ferr := fleet.Load(dir); ferr == nil {
			rep.Fleet = fv
		}
		if err := obs.WriteReport(reportOut, rep); err != nil {
			fail("%v", err)
		}
	}

	fmt.Printf("protocol    : %s (%s form)\n", s.Protocol.Name(), execLabel)
	fmt.Printf("processes   : %d, faulty objects: %v, faults/object: %s\n",
		len(s.Inputs), s.FaultyObjects, tString(s.FaultsPerObject))
	fmt.Printf("executions  : %d (complete: %v)\n", out.Executions, out.Complete)
	fmt.Printf("max steps   : %d per process, max faults: %d per execution\n",
		out.MaxProcSteps, out.MaxFaults)
	fmt.Printf("ledger      : %d participant(s) %v, %d subtree result(s) merged, %d reclaimed\n",
		len(merged.Participants), merged.Participants, merged.Results, merged.Reclaims)
	if merged.TotalWorkNS > 0 {
		fmt.Printf("ledger      : %s longest claim, %s total fleet work\n",
			time.Duration(merged.ElapsedNS).Round(time.Millisecond),
			time.Duration(merged.TotalWorkNS).Round(time.Millisecond))
	}
	if merged.DedupHits > 0 {
		fmt.Printf("dedup       : %d replays pruned (per-process caches)\n", merged.DedupHits)
	}

	if out.Violation == nil {
		if out.Complete {
			fmt.Println("result      : VERIFIED — no execution violates consensus")
			return
		}
		fmt.Println("result      : NO VIOLATION FOUND (a participant hit its execution cap; re-run with a higher -max for certainty)")
		return
	}
	fmt.Printf("result      : VIOLATION (%s)\n", out.Violation.Verdict.Violation)
	fmt.Println()
	if diagram {
		fmt.Print(out.Violation.Trace.Diagram())
		fmt.Println()
	}
	if jsonOut {
		data, err := json.MarshalIndent(out.Violation.Trace, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	} else {
		fmt.Print(out.Violation.String())
	}
	os.Exit(1)
}

// buildReport renders the finished run as the machine-readable report
// documented in docs/MODEL.md: verdict, counterexample, the full metric
// snapshot, and the event-log type counts.
func buildReport(out *explore.Outcome, reg *obs.Registry, events *obs.Log, meta map[string]string) *obs.Report {
	snap := reg.Snapshot()
	rep := &obs.Report{
		Schema:  obs.ReportSchema,
		Run:     meta,
		Metrics: snap,
		Events:  events.Counts(),
		Verdict: obs.Verdict{
			Complete:     out.Complete,
			Executions:   int64(out.Executions),
			Violations:   snap.Counters["explore.violations"],
			Workers:      out.Workers,
			MaxProcSteps: out.MaxProcSteps,
			MaxFaults:    out.MaxFaults,
			ElapsedNS:    out.Elapsed.Nanoseconds(),
		},
	}
	switch {
	case out.Violation != nil:
		rep.Verdict.Result = "violation"
		rep.Verdict.Violation = string(out.Violation.Verdict.Violation)
		rep.Verdict.FirstViolationNS = out.ViolationLatency.Nanoseconds()
		rep.Counterexample = map[string]any{
			"path":      out.Violation.Path,
			"schedule":  out.Violation.Schedule,
			"inputs":    out.Violation.Inputs,
			"violation": string(out.Violation.Verdict.Violation),
		}
	case out.Complete:
		rep.Verdict.Result = "verified"
	default:
		rep.Verdict.Result = "incomplete"
	}
	return rep
}

// profileCapture owns the -profile-dir CPU/heap capture.
type profileCapture struct {
	dir string
	cpu *os.File
}

// startProfiles begins the CPU profile in dir ("" disables capture).
func startProfiles(dir string) (*profileCapture, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return &profileCapture{dir: dir, cpu: f}, nil
}

// stop seals the CPU profile and writes the heap profile. Nil-safe.
func (p *profileCapture) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.dir, "heap.pprof"))
	if err != nil {
		return err
	}
	runtime.GC() // a settled heap makes the profile reflect live memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "modelcheck: "+format+"\n", args...)
	os.Exit(2)
}

func tString(t int) string {
	if t == fault.Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", t)
}

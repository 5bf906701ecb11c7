#!/bin/sh
# CI gate: formatting, vet, build, full test suite, and a race-detector
# pass over every package.
set -eu

cd "$(dirname "$0")/.."

# gate runs `go test -count=1 -v ARGS` and fails when the tests fail or when
# the -run regex in ARGS selected no test at all: `go test -run` passes a
# regex that matches nothing ("no tests to run"), so a renamed or deleted
# test would otherwise drop out of its gate silently. A regex of the form
# '^(A|B|C)$' names its tests, and each of them must run.
gate() {
	log="$(mktemp)"
	status=0
	go test -count=1 -v "$@" >"$log" 2>&1 || status=$?
	grep -E '^(--- FAIL|FAIL|ok|panic:)' "$log" || true
	if [ "$status" -ne 0 ]; then
		cat "$log" >&2
		rm -f "$log"
		exit "$status"
	fi
	if ! grep -q '^=== RUN' "$log"; then
		echo "gate: go test $* ran no tests" >&2
		rm -f "$log"
		exit 1
	fi
	for name in $(printf '%s\n' "$@" | sed -n 's/^^(\(.*\))[$]$/\1/p' | tr '|' ' '); do
		if ! grep -qx "=== RUN   $name" "$log"; then
			echo "gate: go test $* did not run $name" >&2
			rm -f "$log"
			exit 1
		fi
	done
	rm -f "$log"
}

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not gofmt-formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== obs gate (vet + staticcheck + fresh tests) =="
# The observability layer is the measurement foundation every perf PR
# builds on, so it gets its own uncached gate: vet, staticcheck when the
# tool is installed, and -count=1 tests.
go vet ./internal/obs/
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./internal/obs/
else
	echo "staticcheck not installed; skipping (go vet still gates internal/obs)"
fi
go test -count=1 ./internal/obs/

echo "== trace gate (vet + fresh tests) =="
# The trace/v1 on-disk format and the Perfetto rendering are what every
# capture, replay, and explanation depends on, so the trace packages get
# the same uncached gate.
go vet ./internal/trace/ ./internal/trace/export/
go test -count=1 ./internal/trace/ ./internal/trace/export/

echo "== go build =="
go build ./...

echo "== reference isolation (only tests run the goroutine-gated simulator) =="
# internal/refsim is the reference semantics the compiled step machines are
# certified against: each protocol's Decide code on goroutine-gated
# processes. Every verdict, table, adversary and CLI runs the compiled
# machines, so no package may depend on the reference outside its tests.
# go list -deps leaves test imports out, so a package listed here reaches
# refsim from non-test code. bench/ is its own module and is checked too.
refsim_users() {
	go list -f '{{.ImportPath}}:{{range .Deps}} {{.}}{{end}}' ./... |
		grep -E ' repro/internal/refsim( |$)' | cut -d: -f1
}
leaks="$(refsim_users; cd bench && refsim_users)"
if [ -n "$leaks" ]; then
	echo "reference isolation: these non-test packages depend on internal/refsim:" >&2
	echo "$leaks" >&2
	exit 1
fi

echo "== seeding gate (math/rand sources come from internal/seeded) =="
# rand.NewSource fills math/rand's whole 607-slot register, 1,841 steps of
# its seeding generator (about 13 µs), before the first draw, and the
# samplers, schedulers and fault streams build a source per run.
# internal/seeded yields the same stream and computes only the slots the
# draws read, so no other non-test file of the module may call
# rand.NewSource; internal/seeded itself reads one stream at init. bench/,
# its own module, draws its inputs from one source per run and is left out.
seeders="$(go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
	grep -v '/internal/seeded/' | xargs -r grep -nE 'rand\.NewSource\b' |
	grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$seeders" ]; then
	echo "seeding gate: these non-test files call rand.NewSource; use seeded.New:" >&2
	echo "$seeders" >&2
	exit 1
fi

echo "== seeded stream gate (internal/seeded vs math/rand, fresh) =="
# Every sampled table cell, schedule and fault stream depends on
# internal/seeded drawing exactly math/rand's stream. The test compares the
# two draw for draw over edge seeds (zero, negatives, multiples of 2^31-1,
# the int64 extremes), past two wraps of the register, across in-place
# re-seeds and through every rand.Rand method the repository calls; the
# fuzz target's seed corpus replays mixed draws and re-seeds. The atomics
# test holds a faulty bank's fault decisions to math/rand's stream for its
# seed, which no golden cell covers (E8 masks them). Uncached.
gate -run '^(TestSourceMatchesMathRand|FuzzSourceMatchesMathRand|TestFaultyBankDecisionsFollowSeed)$' \
	./internal/seeded/ ./internal/atomicx/

echo "== go test =="
go test ./...

echo "== go test -race (all packages) =="
go test -race ./...

echo "== exec-form equivalence gate (compiled engine, sampler and adversaries vs goroutine reference) =="
# The engine runs only the compiled Stepper machines. They must enumerate
# the SAME execution tree as the protocols' Decide code on the
# goroutine-gated simulator (internal/refsim), the literal transcription of
# Figures 1-3, which survives as a test-only reference replay: every
# protocol is swept (n=2, f=1, unbounded faults) leaf for leaf through both. The engine's leaves
# record nothing, so each is compared on verdict, decisions, step counts
# and fault tally, and then kept as a worker keeps a violation (one more
# replay of its path, with recording on), whose schedule and trace log are
# compared too; any divergence fails the gate. The engine resumes each leaf
# from its saved states while the reference replays from the root, so the
# sweep also certifies incremental replay. The engine-level test sweeps the
# plain enumeration (one worker, no dedup, no reduction) against the
# reference the same way, then holds every dedup x reduction x workers
# cell, clean and violating, to that plain enumeration's verdict and
# lex-least counterexample and, at one worker, to pinned counters. The
# probe test drives one worker over a tree with dedup, with and without
# reduction, and requires that no resumed replay re-probes a state its
# shared prefix already probed (no Revisit). The capture test replays each
# violating case's counterexample (dedup on and off, one and two workers)
# on the reference and requires the engine's schedule, verdict and trace
# event for event. The sampler test holds the
# compiled sampler behind StressWith, StressPCTWith, SampleWith and
# TallyWith to the goroutine reference run for run (uniform and PCT, 200
# seeds per case): schedule, verdict, step and fault counts, and every kept
# record's trace event for event, then whole batch outcomes. The adversary
# test runs the covering, tightness and data-fault adversaries, built by
# one constructor each, on the compiled machines and on the reference over
# a grid of protocols and configurations, and requires the same verdict,
# cover, steps, decisions and trace event for event. Uncached, so the gate
# re-runs every time.
gate -run '^(TestCompiledMatchesInterpreted|TestIncrementalReplayMatchesInterpreted|TestResumedReplayProbesOnlyNewStates|TestCaptureMatchesReference|TestSamplerMatchesReference|TestAdversariesMatchReference)$' \
	./internal/explore/ ./internal/adversary/

echo "== experiments golden gate (quick and full tables at 1 and 2 workers, fresh) =="
# The quick experiments output (internal/harness/testdata) and the full
# seed-1 output EXPERIMENTS.md quotes (experiments_output.txt) are committed
# as golden files. Regenerated through RunAll at one and at two workers,
# each must equal its file byte for byte, except E8's timings and its
# atomics rows' CAS counts, which depend on how real goroutines interleave.
# Every sampled and enumerated cell is checked, so the tables EXPERIMENTS.md
# quotes are reproducible at any worker count. Uncached.
gate -run '^(TestExperimentsGolden|TestExperimentsGoldenFull)$' ./internal/harness/

echo "== reduction-equivalence gate (reduced vs full exploration, fresh, race) =="
# Partial-order reduction must not change what the checker reports: every
# differential case (clean and violating sweeps; the engine has one
# execution form, so each case has one cell) is re-explored with reduce=on
# and any divergence in verdict, completeness, counterexample schedule,
# decisions, or trace log fails the gate. The
# reducer's sleep/symmetry bookkeeping is shared mutable state on the branch
# path, so this gate runs under the race detector, uncached.
gate -race -run TestReduceMatchesFull ./internal/explore/

echo "== dedup set gate (oracle, fresh, race) =="
# The visited set's open-addressing tables must decide every visit as the
# map-backed reference set does (colliding and wrapping keys, table
# doublings, prefixes, improvements, a state limit) and hold the least path
# offered after 8 goroutines race over 2,000 states. A wrong decision prunes
# a subtree that holds the lex-least counterexample, so this runs under the
# race detector, uncached.
gate -race -run '^(TestSetMatchesReference|TestConcurrentVisits|TestSetLimit|TestVisitSemantics|TestVisitPrefixOrdering)$' \
	./internal/dedup/

echo "== resume gate (interrupted vs uninterrupted runs, fresh, race) =="
# A checkpoint carries the frontier, the counters and the best path, not
# the dedup set, so a resumed run starts with an empty set. These tests cut
# runs short by execution count or cap under dedup, reduction and several
# worker counts, resume them from the run directory, and require the
# verdict and the lex-least counterexample of an uninterrupted run and,
# without dedup, its exact execution count. A checkpoint is one consistent
# cut, so one test also resumes copies of the periodic checkpoints a
# running sweep writes, as a SIGKILL leaves them, and requires the exact
# count from each. One resumes a run directory whose checkpoint still
# holds a "dedup" section, as older ones do. Uncached, under the race
# detector, because checkpoints are cut while the workers run.
gate -race -run '^(TestEngineInterruptedResume|TestEngineResumeFromPeriodicCheckpoints|TestEngineInterruptedResumeFindsViolation|TestEngineResumeStartsAtLexLeastTask|TestEngineResumeCappedRun|TestEngineCheckWithPersistence|TestEngineResumesRunWithStoredDedupSet|TestOpenSkipsStoredDedupSet)$' \
	./internal/explore/ ./internal/store/

echo "== cancellation gate (between-step exits, fresh, race, 10 runs) =="
# The stepped runner, the reference arena and the engine poll cancellation
# without blocking before every granted step and every leaf. These tests pin what a cancelled run
# returns (the partial Stopped result or outcome, with ctx.Err()), that a
# pre-cancelled context grants no step, that an uncancelled run never calls
# ctx.Err(), and that per-worker counters still sum after a mid-lease
# cancel. The exits race the workers and the watcher goroutine that aborts
# the frontier, so they run ten times under the race detector, uncached.
gate -race -count=10 -run '^(TestRunContextCancelMidExecution|TestRunContextPreCancelled|TestRunPollsDoneOncePerRun|TestEngineImmediateCancel|TestEngineDeadline|TestEngineCancelMidLeaseWorkerSum|TestConsensusContextCancelPropagates)$' \
	./internal/sim/ ./internal/refsim/ ./internal/explore/ ./internal/run/

echo "== benchmark smoke test (bench/, its own module, fresh) =="
# bench/ drives explore.CheckWith, harness.RunOne, explore.ExplainFile, and
# store.Open exactly as bench/run.sh does, so its smoke test guards the API
# the benchmark depends on. It is a separate module, outside go test ./...
(cd bench && go test -count=1 .)

echo "== scaling gate (workers=8 vs workers=1 smoke sweep) =="
# Negative-scaling regression gate: the same 4096-execution covering-sweep
# slab must not get slower when workers are added. The per-benchmark MINIMUM
# of SCALE_COUNT runs is compared (single samples on a loaded box misread by
# 50%). On a multicore machine eight workers must be at least as fast as
# one (budget 1.05). On a single core eight workers time-slice one P, so
# the budget is the measured cost of interleaving eight replay chains
# through the Go scheduler (~1.4x on this class of box) plus noise headroom:
# 1.6x. Before the lease rework the single-core ratio was not the problem —
# the shared-counter hot path made workers=8 slower than workers=1 even
# with idle cores to spare.
NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$NCPU" -ge 2 ]; then BUDGET=1.05; else BUDGET=1.6; fi
SCALE_COUNT="${SCALE_COUNT:-5}"
RAW_SCALE="$(mktemp)"
RAW_FORM="$(mktemp)"
RAW_REDUCE="$(mktemp)"
trap 'rm -f "$RAW_SCALE" "$RAW_FORM" "$RAW_REDUCE"' EXIT
go test -run '^$' -bench 'BenchmarkEngineCoveringSweep/workers=(1|8)$' \
	-benchtime 1x -count "$SCALE_COUNT" ./internal/explore/ | tee "$RAW_SCALE"
awk -v budget="$BUDGET" '
$1 ~ /\/workers=1(-[0-9]+)?$/ { if (!w1 || $3 + 0 < w1) w1 = $3 + 0 }
$1 ~ /\/workers=8(-[0-9]+)?$/ { if (!w8 || $3 + 0 < w8) w8 = $3 + 0 }
END {
	if (!w1 || !w8) { print "scaling gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	ratio = w8 / w1
	printf "scaling gate: workers=1 min %.0f ns/op, workers=8 min %.0f ns/op, ratio %.2f (budget %.2f)\n", w1, w8, ratio, budget
	if (ratio > budget) {
		printf "FAIL: workers=8 is %.2fx slower than workers=1 — negative worker scaling\n", ratio > "/dev/stderr"
		exit 1
	}
}
' "$RAW_SCALE"

echo "== compiled-speedup gate (compiled engine vs goroutine reference, min of $SCALE_COUNT) =="
# The compiled form's reason to exist is speed: the single-worker engine
# must explore the 4096-execution covering slab at least 2x faster than the
# test-only reference replays the same 4096 leaves (Decide on refsim's
# goroutine-gated simulator, from the root, pre-bound programs on one
# reused arena — the cost the removed goroutine engine form had). Users can
# no longer pick the goroutine form, so the gate measures what the compiled
# engine buys over the reference semantics it is certified against.
# Per-benchmark MINIMUM of SCALE_COUNT runs, same as the scaling gate —
# single samples on a loaded box misread the ratio. The slab is
# single-worker, so the floor holds on single-core hosts too.
go test -run '^$' -bench 'BenchmarkExecFormCoveringSweep' \
	-benchtime 1x -count "$SCALE_COUNT" ./internal/explore/ | tee "$RAW_FORM"
awk '
$1 ~ /\/form=compiled(-[0-9]+)?$/  { if (!c || $3 + 0 < c) c = $3 + 0 }
$1 ~ /\/form=goroutine(-[0-9]+)?$/ { if (!g || $3 + 0 < g) g = $3 + 0 }
END {
	if (!c || !g) { print "compiled-speedup gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	speedup = g / c
	printf "compiled-speedup gate: goroutine min %.0f ns/op, compiled min %.0f ns/op, speedup %.2fx (floor 2.00x)\n", g, c, speedup
	if (speedup < 2) {
		printf "FAIL: compiled form is only %.2fx faster than the goroutine form (floor 2x)\n", speedup > "/dev/stderr"
		exit 1
	}
}
' "$RAW_FORM"

echo "== POR executions-reduction gate (reduce=on vs dedup-only, min of $SCALE_COUNT) =="
# The reducer's reason to exist is fewer replays for the same verdict: on
# the figure2 f=1, n=4 covering sweep (unbounded faults on the first
# object) the reduce=on row must finish the complete verification in at
# least 3x fewer executions than the dedup-only baseline. Both counts are
# exactly reproducible (single worker, complete sweep) — the min of
# SCALE_COUNT runs only defends against a benchmark harness mishap, not
# noise. The equivalence gate above already proved the verdicts and
# counterexamples identical; this gate pins the measured win.
go test -run '^$' -bench 'BenchmarkEngineReduceSweep' \
	-benchtime 1x -count "$SCALE_COUNT" ./internal/explore/ | tee "$RAW_REDUCE"
awk '
$1 ~ /\/reduce=off(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i + 1) == "executions") { v = $i + 0; if (!off || v < off) off = v } }
$1 ~ /\/reduce=on(-[0-9]+)?$/  { for (i = 3; i < NF; i++) if ($(i + 1) == "executions") { v = $i + 0; if (!on  || v < on)  on  = v } }
END {
	if (!off || !on) { print "POR gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	factor = off / on
	printf "POR gate: dedup-only %.0f executions, reduce=on %.0f executions, reduction %.2fx (floor 3.00x)\n", off, on, factor
	if (factor < 3) {
		printf "FAIL: reduction only cuts executions %.2fx over dedup alone (floor 3x)\n", factor > "/dev/stderr"
		exit 1
	}
}
' "$RAW_REDUCE"

echo "OK"

#!/bin/sh
# Machine-readable benchmark results for the exploration engine.
#
# Runs the engine benchmarks (covering-sweep throughput across worker
# counts, the sequential baseline, the state-dedup sweep, and the
# partial-order-reduction sweep) and renders the standard `go test -bench`
# output as BENCH_explore.json: ns/op, states-per-second throughput,
# executions per verification, and the dedup hit rate (hits over per-replay
# leaf lookups), plus derived summaries: the dedup states-explored
# reduction, the "por_reduction" executions factor of reduce=on over the
# dedup-only baseline (gated at ≥ 3x by scripts/check.sh), and a "scaling"
# block giving ns/op at workers=1/2/4/8 with the workers=8 speedup and
# parallel efficiency (speedup / 8). On a single-core box the honest efficiency ceiling is
# 1/8 = 0.125; the block exists so the trajectory shows whether adding
# workers ever makes the same slab SLOWER (the negative-scaling bug).
#
# A second, dedicated pass measures the tracing overhead: the traced and
# untraced covering sweeps run interleaved for TRACE_COUNT repetitions and
# the per-benchmark MINIMUM ns/op is compared (the minimum is the reading
# least contaminated by machine noise — single samples on a loaded box can
# misread the overhead by an order of magnitude). The fraction is recorded
# under "trace_overhead" with its 15% budget; exceeding the budget prints a
# warning but does not fail the script (scripts/check.sh is the hard gate).
#
# A third pass measures the compiled engine against the test-only goroutine
# reference replay (Decide on the goroutine-gated simulator, from the root,
# over the same first 4096 leaves) on the single-worker covering slab (min
# of FORM_COUNT, same noise discipline) and records the ratio under
# "compiled_speedup" together with the host's core count. The engine no
# longer offers the goroutine form; the ratio is what the compiled form
# buys over its reference semantics. The slab is single-worker, so the ratio is
# honest on a single-core host (annotated single_core_host: true), unlike
# the worker-scaling block whose efficiency ceiling depends on cores.
#
# It then runs the same covering-sweep workload once through
# `modelcheck -report` (with dedup and periodic checkpointing enabled) and
# embeds the machine-readable report under "report", so the perf
# trajectory includes the per-worker utilization counters
# (explore.worker.N.executions / .steals / .idle_ns) and the
# checkpoint-latency histograms (explore.checkpoint.save_ms,
# store.checkpoint.write_ms) instead of scraping stderr.
#
#   scripts/bench.sh              # 3 iterations per benchmark (default)
#   BENCHTIME=10x scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
TRACE_COUNT="${TRACE_COUNT:-5}"
FORM_COUNT="${FORM_COUNT:-5}"
OUT="${OUT:-BENCH_explore.json}"
NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
RAW="$(mktemp)"
RAW_TRACE="$(mktemp)"
RAW_FORM="$(mktemp)"
BENCH_JSON="$(mktemp)"
OVERHEAD="$(mktemp)"
SPEEDUP="$(mktemp)"
REPORT="$(mktemp)"
RUNDIR="$(mktemp -d)"
trap 'rm -rf "$RAW" "$RAW_TRACE" "$RAW_FORM" "$BENCH_JSON" "$OVERHEAD" "$SPEEDUP" "$REPORT" "$RUNDIR"' EXIT

go test -run '^$' \
	-bench 'BenchmarkEngineCoveringSweep|BenchmarkEngineDedupSweep|BenchmarkEngineReduceSweep' \
	-benchtime "$BENCHTIME" ./internal/explore/ | tee "$RAW"

awk -v benchtime="$BENCHTIME" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^pkg:/     { pkg = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/^Benchmark/, "", name)
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	iters = $2
	line = "    {\"name\": \"" name "\", \"iterations\": " iters
	for (i = 3; i + 1 <= NF; i += 2) {
		val = $i; unit = $(i + 1)
		if (unit == "ns/op")        key = "ns_per_op"
		else if (unit == "paths/sec") key = "states_per_sec"
		else if (unit == "executions") key = "executions_per_run"
		else if (unit == "hitrate")  key = "dedup_hit_rate"
		else continue
		line = line ", \"" key "\": " val
		if (name ~ /^EngineDedupSweep/) {
			if (name ~ /dedup=false/ && unit == "executions") plain = val
			if (name ~ /dedup=true/ && unit == "executions") dedup = val
		}
		if (name ~ /^EngineReduceSweep/) {
			if (name ~ /reduce=off/ && unit == "executions") roff = val
			if (name ~ /reduce=off/ && unit == "ns/op") roffns = val
			if (name ~ /reduce=on/ && unit == "executions") ron = val
			if (name ~ /reduce=on/ && unit == "ns/op") ronns = val
		}
		if (unit == "ns/op" && name ~ /^EngineCoveringSweep\/workers=/) {
			w = name
			sub(/^EngineCoveringSweep\/workers=/, "", w)
			ns[w + 0] = val
		}
	}
	rows[++n] = line "}"
}
END {
	print "{"
	print "  \"suite\": \"explore engine\","
	print "  \"package\": \"" pkg "\","
	print "  \"goos\": \"" goos "\", \"goarch\": \"" goarch "\","
	print "  \"cpu\": \"" cpu "\","
	print "  \"benchtime\": \"" benchtime "\","
	print "  \"benchmarks\": ["
	for (i = 1; i <= n; i++) print rows[i] (i < n ? "," : "")
	print "  ]" (((ns[1] && ns[8]) || (plain && dedup) || (roff && ron)) ? "," : "")
	if (ns[1] && ns[8]) {
		printf "  \"scaling\": {\"ns_per_op_workers_1\": %.0f, \"ns_per_op_workers_2\": %.0f, \"ns_per_op_workers_4\": %.0f, \"ns_per_op_workers_8\": %.0f, \"speedup_workers_8\": %.4f, \"parallel_efficiency\": %.4f}%s\n", \
			ns[1], ns[2], ns[4], ns[8], ns[1] / ns[8], ns[1] / ns[8] / 8, (((plain && dedup) || (roff && ron)) ? "," : "")
	}
	if (plain && dedup) {
		printf "  \"dedup_reduction\": {\"plain_executions\": %d, \"dedup_executions\": %d, \"executions_saved_fraction\": %.4f}%s\n", \
			plain, dedup, (plain - dedup) / plain, ((roff && ron) ? "," : "")
	}
	if (roff && ron) {
		printf "  \"por_reduction\": {\"dedup_only_executions\": %d, \"reduced_executions\": %d, \"executions_reduction_factor\": %.4f, \"floor\": 3.0, \"dedup_only_ns_per_op\": %.0f, \"reduced_ns_per_op\": %.0f}\n", \
			roff, ron, roff / ron, roffns, ronns
	}
	print "}"
}
' "$RAW" > "$BENCH_JSON"

echo "== tracing overhead (traced vs untraced covering sweep, min of $TRACE_COUNT) =="
go test -run '^$' \
	-bench 'BenchmarkEngineCoveringSweep/workers=4$|BenchmarkEngineTracedCoveringSweep' \
	-benchtime "$BENCHTIME" -count "$TRACE_COUNT" ./internal/explore/ | tee "$RAW_TRACE"

awk -v count="$TRACE_COUNT" '
/^BenchmarkEngineCoveringSweep\/workers=4/       { if (!u || $3 + 0 < u) u = $3 + 0 }
/^BenchmarkEngineTracedCoveringSweep\/workers=4/ { if (!t || $3 + 0 < t) t = $3 + 0 }
END {
	if (!u || !t) { print "{}"; exit 1 }
	overhead = (t - u) / u
	printf "{\"untraced_min_ns_per_op\": %.0f, \"traced_min_ns_per_op\": %.0f, \"overhead_fraction\": %.4f, \"budget_fraction\": 0.15, \"samples\": %d}\n", \
		u, t, overhead, count
	if (overhead > 0.15) {
		printf "WARNING: tracing overhead %.1f%% exceeds the 15%% budget\n", 100 * overhead > "/dev/stderr"
	}
}
' "$RAW_TRACE" > "$OVERHEAD"

echo "== compiled-vs-goroutine execution form (min of $FORM_COUNT) =="
go test -run '^$' \
	-bench 'BenchmarkExecFormCoveringSweep' \
	-benchtime "$BENCHTIME" -count "$FORM_COUNT" ./internal/explore/ | tee "$RAW_FORM"

awk -v count="$FORM_COUNT" -v ncpu="$NCPU" '
/^BenchmarkExecFormCoveringSweep\/form=compiled/  { if (!c || $3 + 0 < c) c = $3 + 0 }
/^BenchmarkExecFormCoveringSweep\/form=goroutine/ { if (!g || $3 + 0 < g) g = $3 + 0 }
END {
	if (!c || !g) { print "{}"; exit 1 }
	printf "{\"goroutine_min_ns_per_op\": %.0f, \"compiled_min_ns_per_op\": %.0f, \"compiled_speedup\": %.4f, \"floor\": 2.0, \"samples\": %d, \"host_cpus\": %d, \"single_core_host\": %s}\n", \
		g, c, g / c, count, ncpu, (ncpu <= 1 ? "true" : "false")
}
' "$RAW_FORM" > "$SPEEDUP"

# One instrumented run producing the metric snapshot the bench trajectory
# records. The workload is the dedup-sweep configuration (staged f=1, t=1,
# n=2, unbounded faults on every object): its execution tree is finite, so
# the run COMPLETES and the embedded report's "result" is a real verdict
# ("verified"), not the "incomplete" a capped slab produces — an embedded
# incomplete run is a benchmark artifact, not a canonical report.
# Checkpointing is on so the checkpoint-latency histograms populate.
echo "== instrumented verification run (-report) =="
go run ./cmd/modelcheck \
	-proto figure3 -f 1 -t 1 -n 2 -unbounded -max 1000000 -dedup \
	-checkpoint "$RUNDIR/run" -checkpoint-every 100ms \
	-report "$REPORT" >/dev/null

# Embed the overhead measurement and the run report into the benchmark
# JSON: drop the closing brace, splice in the members, close the object.
{
	sed '$d' "$BENCH_JSON"
	printf '  ,\n  "trace_overhead":\n'
	sed 's/^/  /' "$OVERHEAD"
	printf '  ,\n  "compiled_speedup":\n'
	sed 's/^/  /' "$SPEEDUP"
	printf '  ,\n  "report":\n'
	sed 's/^/  /' "$REPORT"
	printf '}\n'
} > "$OUT"

echo "wrote $OUT"

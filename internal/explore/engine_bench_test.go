package explore

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
)

// benchConfig is the E5-style covering sweep workload: the staged protocol
// for f=2 with three processes and every stage object faultable once — the
// configuration whose covering adversary breaks agreement at n = f+2. Its
// execution tree has millions of leaves, so each iteration explores a fixed
// 4096-execution slab (the cap is claimed atomically, so the work per
// iteration is identical for every worker count).
func benchConfig() run.Settings {
	proto := core.NewStaged(2, 1)
	objects := proto.Objects()
	faulty := make([]int, objects)
	for i := range faulty {
		faulty[i] = i
	}
	return run.Settings{
		Protocol:        proto,
		Inputs:          inputs(3),
		FaultyObjects:   faulty,
		FaultsPerObject: 1,
		MaxExecutions:   4096,
	}
}

// BenchmarkEngineCoveringSweep measures exploration throughput of the
// parallel engine across worker counts. On a multicore machine the
// paths/sec metric scales near-linearly up to the core count, because
// workers replay independently and share only the frontier and the atomic
// execution counter.
func BenchmarkEngineCoveringSweep(b *testing.B) {
	cfg := benchConfig()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := &Engine{}
			var execs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(w)))
				if err != nil {
					b.Fatal(err)
				}
				if out.Executions != cfg.MaxExecutions {
					b.Fatalf("executions = %d, want %d", out.Executions, cfg.MaxExecutions)
				}
				execs += int64(out.Executions)
			}
			b.StopTimer()
			b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
		})
	}
}

// BenchmarkEngineDedupSweep measures the state-dedup cache on a completely
// enumerable workload: the staged f=1 protocol with two processes and
// unbounded overriding faults on every object. Equal canonical states
// recur across interleavings here, so the deduplicated run finishes the
// same verification in roughly a third of the replays; the executions and
// hitrate metrics make the reduction visible next to the dedup=off row.
func BenchmarkEngineDedupSweep(b *testing.B) {
	cfg := run.Settings{
		Protocol:        core.NewStaged(1, 1),
		Inputs:          inputs(2),
		FaultyObjects:   []int{0, 1, 2},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   1_000_000,
	}
	for _, dedupOn := range []bool{false, true} {
		b.Run(fmt.Sprintf("dedup=%v", dedupOn), func(b *testing.B) {
			var execs, hits, leafLookups int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(4), dedupIf(dedupOn)))
				if err != nil {
					b.Fatal(err)
				}
				if !out.Complete || !out.OK() {
					b.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
				}
				execs += int64(out.Executions)
				if out.Dedup != nil {
					hits += out.Dedup.Hits
					leafLookups += out.Dedup.LeafLookups
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(execs)/float64(b.N), "executions")
			b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
			if leafLookups > 0 {
				// Hits over per-replay lookups — the fraction of replays
				// the cache pruned, comparable to the executions delta
				// against the dedup=off row.
				b.ReportMetric(float64(hits)/float64(leafLookups), "hitrate")
			}
		})
	}
}

// BenchmarkEngineReduceSweep measures dynamic partial-order reduction
// against the dedup-only baseline on a completely enumerable covering
// sweep: figure2's f+1 construction for f=1 with four processes and
// unbounded overriding faults on its first object. Both rows verify the
// same space completely; the reduce=on row replays ~3x fewer leaves —
// sleep sets cut commuting interleavings the state cache cannot see (the
// cache only merges identical canonical states, sleep sets also kill
// same-verdict permutations that never revisit a state). One worker keeps
// the executions metric exactly reproducible; scripts/bench.sh records both
// rows as por_reduction in BENCH_explore.json and scripts/check.sh gates
// the ratio at ≥ 3x.
func BenchmarkEngineReduceSweep(b *testing.B) {
	cfg := run.Settings{
		Protocol:        core.NewFPlusOne(1),
		Inputs:          inputs(4),
		FaultyObjects:   []int{0},
		FaultsPerObject: fault.Unbounded,
		MaxExecutions:   4_000_000,
	}
	for _, mode := range []run.ReduceMode{run.ReduceOff, run.ReduceSafe} {
		b.Run("reduce="+mode.String(), func(b *testing.B) {
			var execs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Reduce = mode
				eng := &Engine{}
				out, err := eng.Check(context.Background(), with(&c, run.WithWorkers(1), run.WithDedup()))
				if err != nil {
					b.Fatal(err)
				}
				if !out.Complete || !out.OK() {
					b.Fatalf("complete=%v violation=%v", out.Complete, out.Violation)
				}
				execs += int64(out.Executions)
			}
			b.StopTimer()
			b.ReportMetric(float64(execs)/float64(b.N), "executions")
			b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
		})
	}
}

// BenchmarkExecFormCoveringSweep compares the engine's compiled form with
// the test-only reference form on the 4096-execution covering-sweep slab
// with a single worker, so the ratio isolates per-execution cost:
// form=compiled runs the engine, whose core.Stepper machines resume each
// leaf from a saved state in the stepped runner's tight loop (zero
// goroutine hops); form=goroutine replays the same first 4096 leaves in
// lexicographic order through refReplay, Decide on the goroutine-gated
// simulator from the root (two channel handshakes per step).
// scripts/bench.sh records the min-of-5 ratio as compiled_speedup in
// BENCH_explore.json; scripts/check.sh gates it at ≥ 2×.
func BenchmarkExecFormCoveringSweep(b *testing.B) {
	cfg := benchConfig()
	b.Run("form=compiled", func(b *testing.B) {
		eng := &Engine{}
		var execs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(1)))
			if err != nil {
				b.Fatal(err)
			}
			if out.Executions != cfg.MaxExecutions {
				b.Fatalf("executions = %d, want %d", out.Executions, cfg.MaxExecutions)
			}
			execs += int64(out.Executions)
		}
		b.StopTimer()
		b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
	})
	b.Run("form=goroutine", func(b *testing.B) {
		kind, _, err := prepare(&cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		c := &chooser{}
		ref := newRefReplay(&cfg, kind, c)
		defer ref.close()
		var execs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.path = c.path[:0]
			n := 0
			for n < cfg.MaxExecutions {
				if _, _, err := ref.runLeaf(); err != nil {
					b.Fatal(err)
				}
				n++
				if !c.next() {
					break
				}
			}
			if n != cfg.MaxExecutions {
				b.Fatalf("executions = %d, want %d", n, cfg.MaxExecutions)
			}
			execs += int64(n)
		}
		b.StopTimer()
		b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
	})
}

// BenchmarkEngineTracedCoveringSweep is the covering-sweep workload with
// the tracing subsystem live: worker-task spans recorded and one in 1024
// passing executions captured to disk as trace/v1 + Perfetto files. The
// ns/op delta against BenchmarkEngineCoveringSweep/workers=4 is the
// tracing overhead; scripts/bench.sh records the fraction in
// BENCH_explore.json with a 15% budget.
func BenchmarkEngineTracedCoveringSweep(b *testing.B) {
	cfg := benchConfig()
	b.Run("workers=4", func(b *testing.B) {
		dir := b.TempDir()
		meta := map[string]string{"proto": "figure3", "f": "2", "t": "1", "n": "3"}
		var execs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := NewTracer(dir, 1024, meta)
			if err != nil {
				b.Fatal(err)
			}
			eng := &Engine{Tracer: tr}
			out, err := eng.Check(context.Background(), with(&cfg, run.WithWorkers(4)))
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
			if out.Executions != cfg.MaxExecutions {
				b.Fatalf("executions = %d, want %d", out.Executions, cfg.MaxExecutions)
			}
			execs += int64(out.Executions)
		}
		b.StopTimer()
		b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "paths/sec")
	})
}

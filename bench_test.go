// Benchmarks regenerating the cost side of every reproduction experiment
// (see DESIGN.md §3 and EXPERIMENTS.md). One benchmark family per
// experiment, plus microbenchmarks for the substrates.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/refsim"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/word"
)

func benchInputs(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(10 + i)
	}
	return in
}

// consensus runs one execution described by the settings.
func consensus(s run.Settings) (*run.Result, error) {
	return run.ConsensusContext(context.Background(), &s)
}

func objectIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// --- E1: two-process consensus from one faulty CAS (Figure 1) ---

func BenchmarkE1TwoProcess(b *testing.B) {
	for _, rate := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("rate=%.1f", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				res, err := consensus(run.Settings{
					Protocol:  core.SingleCAS{},
					Inputs:    benchInputs(2),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewBudget(1, fault.Unbounded),
					Policy:    fault.WhenEffective(fault.Rate(fault.Overriding, rate, seed)),
				})
				if err != nil || !res.Verdict.OK() {
					b.Fatalf("violation or error: %v %v", err, res.Verdict)
				}
			}
		})
	}
}

// --- E2: f-tolerant consensus from f+1 objects (Figure 2) ---

func BenchmarkE2FPlusOne(b *testing.B) {
	for _, f := range []int{1, 2, 4, 8} {
		for _, n := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("f=%d/n=%d", f, n), func(b *testing.B) {
				proto := core.NewFPlusOne(f)
				for i := 0; i < b.N; i++ {
					seed := int64(i)
					res, err := consensus(run.Settings{
						Protocol:  proto,
						Inputs:    benchInputs(n),
						Scheduler: sim.NewRandom(seed),
						Budget:    fault.NewFixedBudget(objectIDs(f), fault.Unbounded),
						Policy:    fault.WhenEffective(fault.Always(fault.Overriding)),
					})
					if err != nil || !res.Verdict.OK() {
						b.Fatalf("violation or error: %v %v", err, res.Verdict)
					}
				}
			})
		}
	}
}

// --- E3: (f, t, f+1)-tolerant consensus from f faulty objects (Figure 3) ---

func BenchmarkE3Staged(b *testing.B) {
	for _, cfg := range []struct{ f, t int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}} {
		b.Run(fmt.Sprintf("f=%d/t=%d", cfg.f, cfg.t), func(b *testing.B) {
			proto := core.NewStaged(cfg.f, cfg.t)
			n := cfg.f + 1
			for i := 0; i < b.N; i++ {
				seed := int64(i)
				res, err := consensus(run.Settings{
					Protocol:  proto,
					Inputs:    benchInputs(n),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewFixedBudget(objectIDs(cfg.f), cfg.t),
					Policy:    fault.WhenEffective(fault.Rate(fault.Overriding, 0.4, seed)),
				})
				if err != nil || !res.Verdict.OK() {
					b.Fatalf("violation or error: %v %v", err, res.Verdict)
				}
			}
		})
	}
}

// --- E4: time to find the Theorem 18 counterexample ---

func BenchmarkE4CounterexampleSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := explore.CheckWith(context.Background(),
			run.WithProtocol(core.SingleCAS{}),
			run.WithInputs(benchInputs(3)...),
			run.WithFaultyObjects([]int{0}, fault.Unbounded),
		)
		if err != nil || out.OK() {
			b.Fatal("expected a violation")
		}
	}
}

// --- E5: the covering adversary (Theorem 19) ---

func BenchmarkE5Covering(b *testing.B) {
	for _, f := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			proto := core.NewStaged(f, 1)
			for i := 0; i < b.N; i++ {
				res, err := adversary.Covering(proto, benchInputs(f+2))
				if err != nil || !res.Violated() {
					b.Fatal("covering adversary must violate")
				}
			}
		})
	}
}

// --- E6: exhaustive verification throughput (the hierarchy's base level) ---

func BenchmarkE6ExhaustiveTheorem6(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		out, err := explore.CheckWith(context.Background(),
			run.WithProtocol(core.NewStaged(1, 1)),
			run.WithInputs(benchInputs(2)...),
			run.WithFaultyObjects([]int{0}, 1),
		)
		if err != nil || !out.Complete || !out.OK() {
			b.Fatal("exhaustive verification failed")
		}
		execs = out.Executions
	}
	b.ReportMetric(float64(execs), "executions/verification")
}

// --- E7: the data-fault comparator ---

func BenchmarkE7DataFault(b *testing.B) {
	proto := core.NewStaged(1, 1)
	in := benchInputs(2)
	forged := word.Pack(in[1], proto.MaxStage())
	for i := 0; i < b.N; i++ {
		res, err := adversary.DataFault(proto, in, 0, forged)
		if err != nil || !res.Violated() {
			b.Fatal("data fault must violate")
		}
	}
}

// --- E8: construction cost on real atomics ---

func benchAtomicConsensus(b *testing.B, proto core.Protocol, procs, faulty, t int, rate float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var bank *atomicx.Bank
		if faulty > 0 {
			bank = atomicx.NewFaultyBank(proto.Objects(),
				fault.NewFixedBudget(objectIDs(faulty), t), rate, int64(i))
		} else {
			bank = atomicx.NewBank(proto.Objects())
		}
		var wg sync.WaitGroup
		results := make([]int64, procs)
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = proto.Decide(bank, int64(100+g))
			}(g)
		}
		wg.Wait()
		for g := 1; g < procs; g++ {
			if results[g] != results[0] {
				b.Fatalf("disagreement: %v", results)
			}
		}
	}
}

func BenchmarkE8Baseline(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchAtomicConsensus(b, core.SingleCAS{}, procs, 0, 0, 0)
		})
	}
}

func BenchmarkE8FPlusOne(b *testing.B) {
	for _, f := range []int{1, 3} {
		for _, procs := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("f=%d/procs=%d", f, procs), func(b *testing.B) {
				benchAtomicConsensus(b, core.NewFPlusOne(f), procs, f, fault.Unbounded, 0.3)
			})
		}
	}
}

func BenchmarkE8Staged(b *testing.B) {
	// Figure 3 is tolerant only up to f+1 processes, so concurrency is
	// tied to f (procs = f+1).
	for _, cfg := range []struct{ f, t int }{{1, 1}, {3, 1}, {3, 2}, {7, 1}} {
		b.Run(fmt.Sprintf("f=%d/t=%d/procs=%d", cfg.f, cfg.t, cfg.f+1), func(b *testing.B) {
			benchAtomicConsensus(b, core.NewStaged(cfg.f, cfg.t), cfg.f+1, cfg.f, cfg.t, 0.3)
		})
	}
}

func BenchmarkE8ReplicatedLogAppend(b *testing.B) {
	proto := core.NewFPlusOne(1)
	log := core.NewLog(proto, func() core.Env {
		return atomicx.NewBank(proto.Objects())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(core.EncodeCmd(0, int64(i%core.MaxCmdPayload)))
	}
}

// --- microbenchmarks for the substrates ---

func BenchmarkMicroWordPack(b *testing.B) {
	var sink word.Word
	for i := 0; i < b.N; i++ {
		sink = word.Pack(int64(i&word.MaxValue), int64(i&15))
	}
	_ = sink
}

func BenchmarkMicroSimCASStep(b *testing.B) {
	// Cost of one scheduled CAS step in the goroutine-gated reference
	// simulator, amortized over a long-running single process.
	const stepsPerRun = 1024
	bank := object.NewBank(1, nil, nil)
	prog := func(p *refsim.Proc) word.Word {
		env := refsim.Bind(bank, p)
		for i := 0; i < stepsPerRun; i++ {
			env.CAS(0, word.Bottom, word.Bottom)
		}
		return word.FromValue(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refsim.Run(refsim.Config{
			Programs:  []refsim.Program{prog},
			Scheduler: sim.NewRoundRobin(),
			StepLimit: stepsPerRun + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*stepsPerRun)/b.Elapsed().Seconds(), "steps/s")
}

func BenchmarkMicroAtomicCAS(b *testing.B) {
	bank := atomicx.NewBank(1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bank.CAS(0, word.Bottom, word.Bottom)
		}
	})
}

func BenchmarkMicroFaultyAtomicCAS(b *testing.B) {
	bank := atomicx.NewFaultyBank(1, fault.NewBudget(1, fault.Unbounded), 0.5, 1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bank.CAS(0, word.Bottom, word.Bottom)
		}
	})
}

func BenchmarkMicroCASApply(b *testing.B) {
	o := object.NewCAS(0, fault.NewBudget(1, fault.Unbounded), fault.Always(fault.Overriding))
	for i := 0; i < b.N; i++ {
		o.Apply(0, word.Bottom, word.FromValue(int64(i&word.MaxValue)))
	}
}

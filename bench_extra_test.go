// Benchmarks for the extension modules: the universal construction and its
// state machines, the valency analyzer, and the PCT-vs-uniform search
// comparison.
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
	"repro/internal/run"
	"repro/internal/valency"
)

func BenchmarkUniversalExecute(b *testing.B) {
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			proto := core.SingleCAS{}
			u := core.NewUniversal(procs, proto, func() core.Env {
				return atomicx.NewBank(proto.Objects())
			})
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/procs + 1
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						u.Execute(p, core.EncodeCmd(p, int64(i%core.MaxCmdPayload)))
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	proto := core.NewFPlusOne(1)
	// Fresh counter per 4096 ops (sequence space); amortized via sub-runs.
	var c *core.Counter
	newCounter := func() {
		c = core.NewCounter(1, proto, func() core.Env {
			return atomicx.NewBank(proto.Objects())
		})
	}
	newCounter()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n == 4000 {
			b.StopTimer()
			newCounter()
			n = 0
			b.StartTimer()
		}
		c.Add(0, 1)
		n++
	}
}

func BenchmarkValencyCompute(b *testing.B) {
	s := run.NewSettings(run.WithProtocol(core.NewStaged(1, 1)), run.WithInputs(benchInputs(2)...),
		run.WithFaultyObjects([]int{0}, 1))
	for i := 0; i < b.N; i++ {
		v, err := valency.Compute(s, nil)
		if err != nil || !v.Multivalent() {
			b.Fatal("initial state must be multivalent")
		}
	}
}

func BenchmarkSearchUniformVsPCT(b *testing.B) {
	// Head-to-head: violations found per 1000 runs on the deep
	// Theorem 19 configuration (f=2, n=4). PCT's advantage is the
	// headline number; see EXPERIMENTS.md E9.
	opts := []run.Option{
		run.WithProtocol(core.NewStaged(2, 1)),
		run.WithInputs(benchInputs(4)...),
		run.WithFaultyObjects([]int{0, 1}, 1),
	}
	b.Run("uniform", func(b *testing.B) {
		viol := 0
		for i := 0; i < b.N; i++ {
			out, err := explore.StressWith(1000, int64(i), opts...)
			if err != nil {
				b.Fatal(err)
			}
			viol += out.Violations
		}
		b.ReportMetric(float64(viol)/float64(b.N), "violations/1000runs")
	})
	b.Run("pct", func(b *testing.B) {
		viol := 0
		for i := 0; i < b.N; i++ {
			out, err := explore.StressPCTWith(1000, int64(i), 3, 0, opts...)
			if err != nil {
				b.Fatal(err)
			}
			viol += out.Violations
		}
		b.ReportMetric(float64(viol)/float64(b.N), "violations/1000runs")
	})
}

func BenchmarkCoveringVsModelCheck(b *testing.B) {
	// Two routes to the same Theorem 19 counterexample at f=1, n=3: the
	// proof-driven adversary (direct construction) vs the model
	// checker's DFS. The adversary is O(one execution); the checker
	// pays for its generality.
	opts := []run.Option{
		run.WithProtocol(core.NewStaged(1, 1)),
		run.WithInputs(benchInputs(3)...),
		run.WithFaultyObjects([]int{0}, 1),
	}
	b.Run("modelcheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := explore.CheckWith(context.Background(), opts...)
			if err != nil || out.OK() {
				b.Fatal("expected violation")
			}
		}
	})
	b.Run("covering", func(b *testing.B) {
		proto := core.NewStaged(1, 1)
		for i := 0; i < b.N; i++ {
			res, err := coveringFind(proto)
			if err != nil || !res {
				b.Fatal("expected violation")
			}
		}
	})
}

func coveringFind(proto core.Protocol) (bool, error) {
	res, err := adversary.Covering(proto, benchInputs(proto.Objects()+2))
	if err != nil {
		return false, err
	}
	return res.Violated(), nil
}

// Soak tests: long randomized campaigns across the whole surface, skipped
// in -short mode. They exist to catch rare interleaving bugs that the
// bounded exhaustive checks cannot reach and short randomized tests are
// unlikely to sample.
package repro_test

import (
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/history"
	"repro/internal/run"
	"repro/internal/word"
)

func TestSoakSimulatedProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	type cfg struct {
		proto  core.Protocol
		n      int
		faulty []int
		t      int
	}
	configs := []cfg{
		{core.SingleCAS{}, 2, []int{0}, fault.Unbounded},
		{core.NewFPlusOne(2), 5, []int{0, 1}, fault.Unbounded},
		{core.NewFPlusOne(3), 8, []int{0, 1, 2}, fault.Unbounded},
		{core.NewStaged(2, 2), 3, []int{0, 1}, 2},
		{core.NewStaged(3, 1), 4, []int{0, 1, 2}, 1},
		{core.NewStaged(4, 1), 5, []int{0, 1, 2, 3}, 1},
	}
	const runsPerConfig = 1500
	for _, c := range configs {
		c := c
		t.Run(c.proto.Name(), func(t *testing.T) {
			t.Parallel()
			opts := []run.Option{
				run.WithProtocol(c.proto),
				run.WithInputs(benchInputs(c.n)...),
				run.WithFaultyObjects(c.faulty, c.t),
			}
			out, err := explore.StressWith(runsPerConfig, 20260705, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !out.OK() {
				t.Fatalf("violation after soak: %s", out.First)
			}
			// PCT pass over the same configuration.
			pct, err := explore.StressPCTWith(runsPerConfig/3, 20260705, 3, 0, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !pct.OK() {
				t.Fatalf("PCT violation after soak: %s", pct.First)
			}
		})
	}
}

func TestSoakAtomicSubstrate(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Hammer the faulty atomic bank with many short consensus rounds and
	// verify agreement every time.
	const rounds = 800
	proto := core.NewStaged(3, 1)
	for r := 0; r < rounds; r++ {
		bank := atomicx.NewFaultyBank(proto.Objects(),
			fault.NewFixedBudget([]int{0, 1, 2}, 1), 0.4, int64(r))
		const n = 4
		results := make([]int64, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = proto.Decide(bank, int64(100+g))
			}(g)
		}
		wg.Wait()
		for g := 1; g < n; g++ {
			if results[g] != results[0] {
				t.Fatalf("round %d: disagreement %v", r, results)
			}
		}
	}
}

func TestSoakHistoryLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Many recorded concurrent histories of the faulty bank, each checked
	// against its own (f, t) budget under the Φ′ relaxation.
	for trial := 0; trial < 300; trial++ {
		bank := atomicx.NewFaultyBank(2, fault.NewBudget(2, 1), 0.6, int64(trial))
		rec := history.NewRecorder(bank)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rec.CAS(g%2, word.Bottom, word.FromValue(int64(g+1)))
				rec.CAS(g%2, word.FromValue(int64(g+1)), word.FromValue(int64(g+4)))
			}(g)
		}
		wg.Wait()
		if !history.Check(rec.Ops(), 2, history.Budget{F: 2, T: 1}) {
			t.Fatalf("trial %d: history exceeds its (2,1) budget:\n%v", trial, rec.Ops())
		}
	}
}

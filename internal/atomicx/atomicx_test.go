package atomicx

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/word"
)

func TestBankBasicCAS(t *testing.T) {
	b := NewBank(2)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	old := b.CAS(0, word.Bottom, word.FromValue(1))
	if old != word.Bottom {
		t.Errorf("old = %s, want ⊥", old)
	}
	old = b.CAS(0, word.Bottom, word.FromValue(2))
	if old != word.FromValue(1) {
		t.Errorf("old = %s, want 1 (failed CAS returns current)", old)
	}
	if got := b.Snapshot()[0]; got != word.FromValue(1) {
		t.Errorf("content = %s, want 1", got)
	}
	if b.Ops() != 2 {
		t.Errorf("ops = %d, want 2", b.Ops())
	}
}

func TestBankReset(t *testing.T) {
	b := NewBank(2)
	b.CAS(0, word.Bottom, word.FromValue(1))
	b.Reset()
	for i, w := range b.Snapshot() {
		if w != word.Bottom {
			t.Errorf("object %d not reset: %s", i, w)
		}
	}
}

func TestConcurrentCASExactlyOneWinner(t *testing.T) {
	// Classic linearizability smoke test: many goroutines race one CAS
	// slot; exactly one sees ⊥.
	for trial := 0; trial < 50; trial++ {
		b := NewBank(1)
		const n = 8
		winners := make(chan int, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if b.CAS(0, word.Bottom, word.FromValue(int64(g+1))).IsBottom() {
					winners <- g
				}
			}(g)
		}
		wg.Wait()
		close(winners)
		count := 0
		for range winners {
			count++
		}
		if count != 1 {
			t.Fatalf("trial %d: %d winners, want exactly 1", trial, count)
		}
	}
}

func TestFaultyBankInjectsOverrides(t *testing.T) {
	b := NewFaultyBank(1, fault.NewBudget(1, fault.Unbounded), 1.0, 42)
	b.CAS(0, word.Bottom, word.FromValue(1)) // unobservable (register was ⊥)
	old := b.CAS(0, word.Bottom, word.FromValue(2))
	if old != word.FromValue(1) {
		t.Errorf("old = %s, want 1 (Φ′ keeps old correct)", old)
	}
	if got := b.Snapshot()[0]; got != word.FromValue(2) {
		t.Errorf("content = %s, want 2 (override writes)", got)
	}
	if b.Faults() != 1 {
		t.Errorf("observable faults = %d, want 1", b.Faults())
	}
}

func TestFaultyBankRespectsBudget(t *testing.T) {
	budget := fault.NewBudget(1, 1)
	b := NewFaultyBank(1, budget, 1.0, 7)
	for i := int64(1); i <= 10; i++ {
		b.CAS(0, word.Bottom, word.FromValue(i))
	}
	if budget.TotalFaults() > 1 {
		t.Errorf("budget overcharged: %d", budget.TotalFaults())
	}
	if b.Faults() > 1 {
		t.Errorf("observable faults = %d, exceeds t=1", b.Faults())
	}
}

// TestFaultyBankDecisionsFollowSeed drives a faulty bank from one goroutine
// with CAS invocations that all expect a value no register holds, so each
// one writes exactly when the bank decides to fault. Those decisions must be
// the ones math/rand's stream for the seed makes: a fault wherever
// Float64() < rate and the (f, t) budget admits the object. E8's tables mask
// the CAS counts this stream drives, so no golden file would notice a bank
// seeded with anything else.
func TestFaultyBankDecisionsFollowSeed(t *testing.T) {
	const (
		seed, rate, perObject = 20200715, 0.3, 40
		objects, ops          = 3, 2000
	)
	faulty := []int{0, 2}
	b := NewFaultyBank(objects, fault.NewFixedBudget(faulty, perObject), rate, seed)
	ref := rand.New(rand.NewSource(seed))
	refBudget := fault.NewFixedBudget(faulty, perObject)
	never := word.FromValue(ops + 1) // no CAS writes it
	wantFaults := int64(0)
	for k := 0; k < ops; k++ {
		obj := k % objects
		want := ref.Float64() < rate && refBudget.Admits(obj)
		if want {
			refBudget.Charge(obj)
			wantFaults++
		}
		before := b.Snapshot()[obj]
		next := word.FromValue(int64(k + 1))
		if old := b.CAS(obj, never, next); old != before {
			t.Fatalf("op %d: CAS returned %s, register held %s", k, old, before)
		}
		if got := b.Snapshot()[obj] == next; got != want {
			t.Fatalf("op %d on object %d: faulted %v, math/rand's stream for seed %d says %v", k, obj, got, seed, want)
		}
	}
	if b.Faults() != wantFaults || wantFaults == 0 {
		t.Errorf("faults = %d, want %d (> 0)", b.Faults(), wantFaults)
	}
	if refBudget.TotalFaults() != int(wantFaults) || refBudget.Admits(0) {
		t.Errorf("budget: %d faults charged, object 0 still admitted: %v; the test should exhaust it",
			refBudget.TotalFaults(), refBudget.Admits(0))
	}
}

func TestFaultyBankZeroRateIsCorrect(t *testing.T) {
	b := NewFaultyBank(1, fault.NewBudget(1, fault.Unbounded), 0.0, 1)
	b.CAS(0, word.Bottom, word.FromValue(1))
	b.CAS(0, word.Bottom, word.FromValue(2))
	if b.Faults() != 0 {
		t.Errorf("faults = %d, want 0", b.Faults())
	}
	if got := b.Snapshot()[0]; got != word.FromValue(1) {
		t.Errorf("content = %s, want 1", got)
	}
}

func TestProtocolsRunOnRealAtomics(t *testing.T) {
	// The same core protocols run unchanged on the atomic substrate:
	// goroutines race a consensus instance and must agree on someone's
	// input. Figure 2 with one genuinely faulty object.
	for trial := 0; trial < 30; trial++ {
		proto := core.NewFPlusOne(1)
		bank := NewFaultyBank(proto.Objects(), fault.NewFixedBudget([]int{0}, fault.Unbounded), 0.5, int64(trial))
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
				t.Fatalf("trial %d: goroutine %d decided %d, goroutine 0 decided %d",
					trial, g, results[g], results[0])
			}
		}
		if results[0] < 100 || results[0] >= 100+n {
			t.Fatalf("trial %d: decided %d, not a participant input", trial, results[0])
		}
	}
}

func TestStagedOnRealAtomicsWithFaults(t *testing.T) {
	// Figure 3 on real atomics: f=2 objects, both may fault with t=1,
	// n=3 goroutines.
	for trial := 0; trial < 20; trial++ {
		proto := core.NewStaged(2, 1)
		bank := NewFaultyBank(proto.Objects(),
			fault.NewFixedBudget([]int{0, 1}, 1), 0.3, int64(trial))
		const n = 3
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
				t.Fatalf("trial %d: disagreement %v", trial, results)
			}
		}
	}
}

func TestBankSatisfiesEnvInterface(t *testing.T) {
	var _ core.Env = NewBank(1)
}

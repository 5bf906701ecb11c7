package history

import (
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/fault"
	"repro/internal/word"
)

func TestSoakHistoryLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Many recorded concurrent histories of the faulty bank, each checked
	// against its own (f, t) budget under the Φ′ relaxation.
	for trial := 0; trial < 300; trial++ {
		bank := atomicx.NewFaultyBank(2, fault.NewBudget(2, 1), 0.6, int64(trial))
		rec := NewRecorder(bank)
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
		if !Check(rec.Ops(), 2, Budget{F: 2, T: 1}) {
			t.Fatalf("trial %d: history exceeds its (2,1) budget:\n%v", trial, rec.Ops())
		}
	}
}

func BenchmarkHistoryCheckStrict(b *testing.B) {
	// A 12-operation concurrent history with overlap: the checker's
	// working set for typical recorded workloads.
	var ops []Op
	for k := 0; k < 6; k++ {
		exp := word.Bottom
		if k > 0 {
			exp = word.FromValue(int64(k))
		}
		ops = append(ops, Op{
			Object: 0, Invoke: int64(3 * k), Return: int64(3*k + 2),
			Exp: exp, New: word.FromValue(int64(k + 1)), Old: exp,
		})
		ops = append(ops, Op{
			Object: 1, Invoke: int64(3*k + 1), Return: int64(3*k + 3),
			Exp: word.Bottom, New: word.FromValue(int64(k + 1)),
			Old: contentAfter(k),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Check(ops, 2, Budget{}) {
			b.Fatal("history must be linearizable")
		}
	}
}

// contentAfter is the old value object 1 reports on its k-th failed CAS.
func contentAfter(k int) word.Word {
	if k == 0 {
		return word.Bottom
	}
	return word.FromValue(1)
}

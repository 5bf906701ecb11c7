package object

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/word"
)

func TestBankCreatesIndependentObjects(t *testing.T) {
	b := NewBank(3, nil, nil)
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Object(1).Apply(0, word.Bottom, word.FromValue(5))
	contents := b.AppendContents(nil)
	if contents[0] != word.Bottom || contents[1] != word.FromValue(5) || contents[2] != word.Bottom {
		t.Errorf("contents = %v", contents)
	}
	b.Reset()
	for i, c := range b.AppendContents(nil) {
		if c != word.Bottom {
			t.Errorf("object %d not reset: %s", i, c)
		}
	}
}

func TestBankObjectsShareBudget(t *testing.T) {
	budget := fault.NewBudget(1, fault.Unbounded) // one faulty object total
	b := NewBank(2, budget, fault.Always(fault.Overriding))

	// Fault object 0 (observable: mismatch).
	b.Object(0).Corrupt(word.FromValue(1))
	_, ev := b.Object(0).Apply(0, word.Bottom, word.FromValue(2))
	if ev.Fault != fault.Overriding {
		t.Fatal("object 0 must fault")
	}

	// Object 1 can no longer join the faulty set.
	b.Object(1).Corrupt(word.FromValue(1))
	_, ev = b.Object(1).Apply(0, word.Bottom, word.FromValue(2))
	if ev.Fault != fault.None {
		t.Error("object 1 must be denied: faulty set is full")
	}
}

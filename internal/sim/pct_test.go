package sim

import (
	"reflect"
	"testing"
)

func TestPCTRunsAllProcessesToCompletion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := newCounter(3, 4)
		res, err := c.run(NewPCT(seed, 12, 3))
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range res.Decided {
			if !ok {
				t.Fatalf("seed %d: process %d never decided (PCT starved it)", seed, i)
			}
		}
		if c.n != 12 {
			t.Fatalf("seed %d: counter = %d", seed, c.n)
		}
	}
}

func TestPCTProducesSoloBursts(t *testing.T) {
	// Without change points (depth 1), PCT runs strict priority order:
	// one process runs solo to completion, then the next — exactly the
	// shape the impossibility proofs need.
	c := newCounter(2, 2)
	if _, err := c.run(NewPCT(3, 4, 1)); err != nil {
		t.Fatal(err)
	}
	// The order must be a solo burst: [a a b b] for some a ≠ b.
	if c.order[0] != c.order[1] || c.order[2] != c.order[3] || c.order[0] == c.order[2] {
		t.Fatalf("depth-1 PCT order = %v, want two solo bursts", c.order)
	}
}

func TestPCTSeedDeterminism(t *testing.T) {
	runOnce := func(seed int64) []int {
		c := newCounter(3, 3)
		if _, err := c.run(NewPCT(seed, 9, 3)); err != nil {
			t.Fatal(err)
		}
		return c.order
	}
	if a, b := runOnce(11), runOnce(11); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestPCTParameterClamping(t *testing.T) {
	s := NewPCT(1, 0, 0) // degenerate params must not panic
	if pick, ok := s.Next([]int{0, 1}); !ok || (pick != 0 && pick != 1) {
		t.Fatalf("pick = %d, ok = %v", pick, ok)
	}
}

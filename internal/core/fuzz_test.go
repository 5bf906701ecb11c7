package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/run"
)

// FuzzStagedAgreement derives a protocol configuration and an execution
// (schedule + fault placement) from the fuzz input and asserts Theorem 6:
// no budget-respecting execution of the staged protocol at n = f+1 may
// violate consensus. Any crash or violation found by the fuzzer would be a
// transcription bug in Figure 3 or a soundness bug in the framework.
func FuzzStagedAgreement(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1))
	f.Add(uint8(2), uint8(1), int64(99))
	f.Add(uint8(1), uint8(3), int64(-5))
	f.Add(uint8(3), uint8(2), int64(12345))
	f.Fuzz(func(t *testing.T, fRaw, tRaw uint8, seed int64) {
		fN := int(fRaw%3) + 1 // f ∈ 1..3
		tN := int(tRaw%3) + 1 // t ∈ 1..3
		proto := core.NewStaged(fN, tN)
		faulty := make([]int, fN)
		for i := range faulty {
			faulty[i] = i
		}
		inputs := make([]int64, fN+1)
		for i := range inputs {
			inputs[i] = int64(10 + i)
		}
		ce, err := explore.SampleWith(seed,
			run.WithProtocol(proto),
			run.WithInputs(inputs...),
			run.WithFaultyObjects(faulty, tN),
		)
		if err != nil {
			t.Fatal(err)
		}
		if !ce.Verdict.OK() {
			t.Fatalf("f=%d t=%d seed=%d: %s\ntrace:\n%s",
				fN, tN, seed, ce.Verdict, ce.Trace)
		}
	})
}

// FuzzFPlusOneAgreement does the same for Figure 2 with arbitrary process
// counts and unbounded faults on the first f objects.
func FuzzFPlusOneAgreement(f *testing.F) {
	f.Add(uint8(1), uint8(3), int64(7))
	f.Add(uint8(2), uint8(5), int64(-1))
	f.Fuzz(func(t *testing.T, fRaw, nRaw uint8, seed int64) {
		fN := int(fRaw%4) + 1 // f ∈ 1..4
		n := int(nRaw%6) + 2  // n ∈ 2..7
		proto := core.NewFPlusOne(fN)
		faulty := make([]int, fN)
		for i := range faulty {
			faulty[i] = i
		}
		inputs := make([]int64, n)
		for i := range inputs {
			inputs[i] = int64(10 + i%3) // duplicates allowed
		}
		ce, err := explore.SampleWith(seed,
			run.WithProtocol(proto),
			run.WithInputs(inputs...),
			run.WithFaultyObjects(faulty, -1), // unbounded
		)
		if err != nil {
			t.Fatal(err)
		}
		if !ce.Verdict.OK() {
			t.Fatalf("f=%d n=%d seed=%d: %s", fN, n, seed, ce.Verdict)
		}
	})
}

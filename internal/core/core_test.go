package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/run"
	"repro/internal/sim"
)

func distinctInputs(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(10 + i)
	}
	return in
}

// mustOK runs one execution and fails the test on any consensus violation.
func mustOK(t *testing.T, cfg run.Settings) *run.Result {
	t.Helper()
	res, err := run.ConsensusContext(context.Background(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.OK() {
		t.Fatalf("%s: %s", cfg.Protocol.Name(), res.Verdict)
	}
	return res
}

func TestSingleCASFaultFreeAnyProcs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for seed := int64(0); seed < 5; seed++ {
			mustOK(t, run.Settings{
				Protocol:  core.SingleCAS{},
				Inputs:    distinctInputs(n),
				Scheduler: sim.NewRandom(seed),
			})
		}
	}
}

func TestSingleCASTwoProcsUnboundedOverriding(t *testing.T) {
	// Theorem 4: one CAS object with unboundedly many overriding faults
	// still solves consensus for two processes.
	for seed := int64(0); seed < 50; seed++ {
		mustOK(t, run.Settings{
			Protocol:  core.SingleCAS{},
			Inputs:    distinctInputs(2),
			Scheduler: sim.NewRandom(seed),
			Budget:    fault.NewBudget(1, fault.Unbounded),
			Policy:    fault.Always(fault.Overriding),
		})
	}
}

func TestSingleCASThreeProcsOverridingViolation(t *testing.T) {
	// Theorem 18 witness: with three processes and unbounded overriding
	// faults, the sequential schedule p0, p1, p2 makes p2 adopt p1's
	// input while p0 and p1 decided p0's — a consistency violation.
	res, err := run.ConsensusContext(context.Background(), &run.Settings{
		Protocol:  core.SingleCAS{},
		Inputs:    distinctInputs(3),
		Scheduler: sim.NewScript(0, 1, 2),
		Budget:    fault.NewBudget(1, fault.Unbounded),
		Policy:    fault.Always(fault.Overriding),
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Violation != run.ViolationConsistency {
		t.Fatalf("verdict = %s, want consistency violation\ntrace:\n%s",
			res.Verdict, res.Sim.Log)
	}
}

func TestFPlusOneFaultFree(t *testing.T) {
	for _, f := range []int{0, 1, 2, 4} {
		for _, n := range []int{1, 2, 3, 6} {
			mustOK(t, run.Settings{
				Protocol:  core.NewFPlusOne(f),
				Inputs:    distinctInputs(n),
				Scheduler: sim.NewRoundRobin(),
			})
		}
	}
}

func TestFPlusOneToleratesFFaultyObjects(t *testing.T) {
	// Theorem 5: with at most f of the f+1 objects faulty (unbounded
	// overriding faults), consensus holds for any process count. We make
	// the adversary as strong as allowed: f objects always override when
	// observable.
	for _, f := range []int{1, 2, 3} {
		for _, n := range []int{2, 3, 5} {
			for seed := int64(0); seed < 20; seed++ {
				// Fault the first f objects; object f stays correct.
				faulty := make([]int, f)
				for i := range faulty {
					faulty[i] = i
				}
				mustOK(t, run.Settings{
					Protocol:  core.NewFPlusOne(f),
					Inputs:    distinctInputs(n),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewFixedBudget(faulty, fault.Unbounded),
					Policy:    fault.Always(fault.Overriding),
				})
			}
		}
	}
}

func TestFPlusOneToleratesAnyFaultySubset(t *testing.T) {
	// The faulty subset is adversarial: any f of the f+1 objects.
	f := 2
	subsets := [][]int{{0, 1}, {0, 2}, {1, 2}}
	for _, sub := range subsets {
		for seed := int64(0); seed < 10; seed++ {
			mustOK(t, run.Settings{
				Protocol:  core.NewFPlusOne(f),
				Inputs:    distinctInputs(4),
				Scheduler: sim.NewRandom(seed),
				Budget:    fault.NewFixedBudget(sub, fault.Unbounded),
				Policy:    fault.Always(fault.Overriding),
			})
		}
	}
}

func TestFPlusOneStepCountExact(t *testing.T) {
	// Figure 2 takes exactly f+1 CAS steps per process.
	f := 3
	res := mustOK(t, run.Settings{
		Protocol:  core.NewFPlusOne(f),
		Inputs:    distinctInputs(4),
		Scheduler: sim.NewRoundRobin(),
	})
	for i, s := range res.Sim.Steps {
		if s != f+1 {
			t.Errorf("process %d took %d steps, want %d", i, s, f+1)
		}
	}
}

func TestStagedFaultFree(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		for _, t2 := range []int{1, 2} {
			proto := core.NewStaged(f, t2)
			for _, n := range []int{1, 2, f + 1} {
				mustOK(t, run.Settings{
					Protocol:  proto,
					Inputs:    distinctInputs(n),
					Scheduler: sim.NewRoundRobin(),
				})
			}
		}
	}
}

func TestStagedToleratesBoundedFaultsAllObjectsFaulty(t *testing.T) {
	// Theorem 6: f objects, all faulty with at most t overriding faults
	// each, n = f+1 processes.
	for _, f := range []int{1, 2} {
		for _, tt := range []int{1, 2} {
			proto := core.NewStaged(f, tt)
			allObjs := make([]int, f)
			for i := range allObjs {
				allObjs[i] = i
			}
			for seed := int64(0); seed < 25; seed++ {
				mustOK(t, run.Settings{
					Protocol:  proto,
					Inputs:    distinctInputs(f + 1),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewFixedBudget(allObjs, tt),
					Policy:    fault.WhenEffective(fault.Always(fault.Overriding)),
				})
			}
		}
	}
}

func TestStagedSoloDecidesOwnInput(t *testing.T) {
	proto := core.NewStaged(2, 1)
	res := mustOK(t, run.Settings{
		Protocol:  proto,
		Inputs:    []int64{42},
		Scheduler: sim.NewRoundRobin(),
	})
	if got := res.Verdict.Agreed.Value(); got != 42 {
		t.Errorf("solo run decided %d, want 42", got)
	}
	// Solo, fault-free: one CAS per object per stage, plus the final CAS.
	want := int(proto.MaxStage())*proto.F + 1
	if res.Sim.Steps[0] != want {
		t.Errorf("solo steps = %d, want %d", res.Sim.Steps[0], want)
	}
}

func TestStagedMaxStageFormula(t *testing.T) {
	cases := []struct {
		f, t int
		want int64
	}{
		{1, 1, 5},  // 1·(4+1)
		{2, 1, 12}, // 1·(8+4)
		{3, 2, 42}, // 2·(12+9)
		{4, 3, 96}, // 3·(16+16)
	}
	for _, c := range cases {
		p := core.NewStaged(c.f, c.t)
		if got := p.MaxStage(); got != c.want {
			t.Errorf("MaxStage(f=%d,t=%d) = %d, want %d", c.f, c.t, got, c.want)
		}
	}
}

func TestStagedLateAdopterAgreesAfterFault(t *testing.T) {
	// The tightness anecdote from Section 4.1/4.3 for f=1, n=2: p0 runs
	// solo to completion deciding v0; p1's first CAS overrides the final
	// content but returns it, so p1 adopts v0 at maxStage and agrees.
	proto := core.NewStaged(1, 1)
	res := mustOK(t, run.Settings{
		Protocol:  proto,
		Inputs:    []int64{10, 11},
		Scheduler: sim.NewSolo(0, 1),
		Budget:    fault.NewFixedBudget([]int{0}, 1),
		Policy:    fault.WhenEffective(fault.Always(fault.Overriding)),
	})
	if got := res.Verdict.Agreed.Value(); got != 10 {
		t.Errorf("agreed on %d, want p0's input 10", got)
	}
}

func TestStagedWithBudgetOverridesMaxStage(t *testing.T) {
	p := core.NewStagedWithBudget(2, 1, 3)
	if p.MaxStage() != 3 {
		t.Errorf("MaxStage = %d, want 3", p.MaxStage())
	}
	if p.Name() == core.NewStaged(2, 1).Name() {
		t.Error("budgeted variant must carry the budget in its name")
	}
	// Zero budget keeps the paper bound.
	if core.NewStaged(2, 1).MaxStage() != 12 {
		t.Errorf("paper bound = %d, want 12", core.NewStaged(2, 1).MaxStage())
	}
}

func TestStagedWithBudgetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive budget must panic")
		}
	}()
	core.NewStagedWithBudget(1, 1, 0)
}

func TestStagedWithBudgetStillDecides(t *testing.T) {
	// A reduced budget keeps validity/wait-freedom in all cases and, at
	// n=2, consistency too (the two-process anomaly; see E10).
	proto := core.NewStagedWithBudget(1, 1, 2)
	for seed := int64(0); seed < 20; seed++ {
		mustOK(t, run.Settings{
			Protocol:  proto,
			Inputs:    distinctInputs(2),
			Scheduler: sim.NewRandom(seed),
			Budget:    fault.NewFixedBudget([]int{0}, 1),
			Policy:    fault.WhenEffective(fault.Always(fault.Overriding)),
		})
	}
}

func TestSilentRetryBoundedFaults(t *testing.T) {
	for _, b := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 3} {
			for seed := int64(0); seed < 10; seed++ {
				mustOK(t, run.Settings{
					Protocol:  core.NewSilentRetry(b),
					Inputs:    distinctInputs(n),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewFixedBudget([]int{0}, b),
					Policy:    fault.Always(fault.Silent),
				})
			}
		}
	}
}

func TestSilentRetryUnboundedFaultsLosesLiveness(t *testing.T) {
	// Section 3.4: with unboundedly many silent faults no process ever
	// lands a write, so the protocol never terminates.
	res, err := run.ConsensusContext(context.Background(), &run.Settings{
		Protocol:  core.NewSilentRetry(3), // believes B=3, reality is ∞
		Inputs:    distinctInputs(2),
		Scheduler: sim.NewRoundRobin(),
		Budget:    fault.NewFixedBudget([]int{0}, fault.Unbounded),
		Policy:    fault.Always(fault.Silent),
		StepLimit: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Violation != run.ViolationWaitFreedom {
		t.Fatalf("verdict = %s, want wait-freedom violation", res.Verdict)
	}
}

func TestProtocolMetadata(t *testing.T) {
	cases := []struct {
		p        core.Protocol
		objects  int
		maxProcs int
	}{
		{core.SingleCAS{}, 1, 2},
		{core.NewFPlusOne(3), 4, 0},
		{core.NewStaged(2, 1), 2, 3},
		{core.NewSilentRetry(2), 1, 0},
	}
	for _, c := range cases {
		if got := c.p.Objects(); got != c.objects {
			t.Errorf("%s Objects = %d, want %d", c.p.Name(), got, c.objects)
		}
		if got := c.p.MaxProcs(); got != c.maxProcs {
			t.Errorf("%s MaxProcs = %d, want %d", c.p.Name(), got, c.maxProcs)
		}
		if c.p.Name() == "" {
			t.Error("empty protocol name")
		}
		if c.p.StepBound(4) <= 0 {
			t.Errorf("%s StepBound must be positive", c.p.Name())
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"FPlusOne(-1)":    func() { core.NewFPlusOne(-1) },
		"Staged overflow": func() { core.NewStaged(100000, 100000) },
		"Staged(0,1)":     func() { core.NewStaged(0, 1) },
		"Staged(1,0)":     func() { core.NewStaged(1, 0) },
		"SilentRetry(-1)": func() { core.NewSilentRetry(-1) },
		"bad input":       func() { core.ValidateInput(-5) },
		"overflow input":  func() { core.ValidateInput(1 << 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAllProtocolsEqualInputs(t *testing.T) {
	// When every process proposes the same value, that value must win
	// (validity forces it).
	protos := []core.Protocol{
		core.SingleCAS{},
		core.NewFPlusOne(2),
		core.NewStaged(2, 1),
		core.NewSilentRetry(1),
	}
	for _, p := range protos {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := mustOK(t, run.Settings{
				Protocol:  p,
				Inputs:    []int64{7, 7, 7},
				Scheduler: sim.NewRandom(3),
			})
			if res.Verdict.Agreed.Value() != 7 {
				t.Errorf("agreed = %s, want 7", res.Verdict.Agreed)
			}
		})
	}
}

func TestStagedManySeedsManyConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, cfg := range []struct{ f, t int }{{1, 1}, {1, 3}, {2, 1}, {3, 1}} {
		proto := core.NewStaged(cfg.f, cfg.t)
		allObjs := make([]int, cfg.f)
		for i := range allObjs {
			allObjs[i] = i
		}
		name := fmt.Sprintf("f=%d,t=%d", cfg.f, cfg.t)
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 60; seed++ {
				mustOK(t, run.Settings{
					Protocol:  proto,
					Inputs:    distinctInputs(cfg.f + 1),
					Scheduler: sim.NewRandom(seed),
					Budget:    fault.NewFixedBudget(allObjs, cfg.t),
					Policy:    fault.WhenEffective(fault.Rate(fault.Overriding, 0.4, seed)),
				})
			}
		})
	}
}

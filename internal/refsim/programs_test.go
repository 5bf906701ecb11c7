package refsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

func TestArrayRunsCASUnderScheduler(t *testing.T) {
	bank := object.NewBank(1, nil, nil)
	log := trace.New()
	prog := func(p *Proc) word.Word {
		env := Bind(bank, p)
		old := env.CAS(0, word.Bottom, word.FromValue(int64(p.ID()+10)))
		if old.IsBottom() {
			return word.FromValue(int64(p.ID() + 10))
		}
		return old
	}
	res, err := Run(Config{
		Programs:  []Program{prog, prog},
		Scheduler: sim.NewRoundRobin(),
		Log:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Process 0 CASes first under round-robin, so both decide 10.
	for i := 0; i < 2; i++ {
		if res.Decisions[i].Value() != 10 {
			t.Errorf("p%d decided %s, want 10", i, res.Decisions[i])
		}
	}
	var casEvents int
	for _, e := range log.Events() {
		if e.Kind == trace.EventCAS {
			casEvents++
		}
	}
	if casEvents != 2 {
		t.Errorf("trace has %d CAS events, want 2", casEvents)
	}
	if got := bank.Object(0).Content(); got != word.FromValue(10) {
		t.Errorf("final content = %s, want 10", got)
	}
}

func TestArrayLen(t *testing.T) {
	bank := object.NewBank(4, nil, nil)
	prog := func(p *Proc) word.Word {
		if Bind(bank, p).Len() != 4 {
			t.Error("bound array must report bank size")
		}
		return word.Bottom
	}
	if _, err := Run(Config{Programs: []Program{prog}, Scheduler: sim.NewRoundRobin()}); err != nil {
		t.Fatal(err)
	}
}

func TestNonresponsiveInvokeStallsProcess(t *testing.T) {
	budget := fault.NewBudget(1, 1)
	bank := object.NewBank(1, budget, fault.Always(fault.Nonresponsive))
	prog := func(p *Proc) word.Word {
		Bind(bank, p).CAS(0, word.Bottom, word.FromValue(1))
		return word.FromValue(1)
	}
	res, err := Run(Config{
		Programs:  []Program{prog},
		Scheduler: sim.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled[0] {
		t.Error("nonresponsive fault must stall the process")
	}
	if res.Decided[0] {
		t.Error("stalled process must not decide")
	}
}

package refsim

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/word"
)

// counter is a trivial shared object for testing the step machinery: each
// Incr is one atomic step recording who ran it.
type counter struct {
	n     int
	order []int
}

func (c *counter) Incr(p *Proc) int {
	var v int
	p.Exec(func() {
		c.n++
		v = c.n
		c.order = append(c.order, p.ID())
		p.Record(trace.Event{Kind: trace.EventWrite, Proc: p.ID(), Value: word.FromValue(int64(v))})
	})
	return v
}

func TestRunAllProcessesDecide(t *testing.T) {
	c := &counter{}
	prog := func(p *Proc) word.Word {
		for i := 0; i < 3; i++ {
			c.Incr(p)
		}
		return word.FromValue(int64(p.ID()))
	}
	res, err := Run(Config{
		Programs:  []Program{prog, prog, prog},
		Scheduler: sim.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !res.Decided[i] {
			t.Errorf("process %d did not decide", i)
		}
		if res.Decisions[i].Value() != int64(i) {
			t.Errorf("process %d decision = %s", i, res.Decisions[i])
		}
		if res.Steps[i] != 3 {
			t.Errorf("process %d took %d steps, want 3", i, res.Steps[i])
		}
	}
	if c.n != 9 {
		t.Errorf("counter = %d, want 9", c.n)
	}
}

func TestStepLimitViolation(t *testing.T) {
	c := &counter{}
	spinner := func(p *Proc) word.Word {
		for {
			c.Incr(p)
		}
	}
	res, err := Run(Config{
		Programs:  []Program{spinner},
		Scheduler: sim.NewRoundRobin(),
		StepLimit: 10,
	})
	if !errors.Is(err, sim.ErrWaitFreedom) {
		t.Fatalf("err = %v, want ErrWaitFreedom", err)
	}
	if res == nil {
		t.Fatal("result must accompany a wait-freedom error")
	}
	if res.Steps[0] != 11 {
		t.Errorf("steps = %d, want limit+1 = 11", res.Steps[0])
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	prog := func(p *Proc) word.Word {
		p.Exec(func() {})
		panic("boom")
	}
	_, err := Run(Config{
		Programs:  []Program{prog},
		Scheduler: sim.NewRoundRobin(),
	})
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != 0 || pe.Value != "boom" {
		t.Errorf("PanicError = %+v", pe)
	}
}

func TestStallModelsNonresponsiveFault(t *testing.T) {
	c := &counter{}
	stuck := func(p *Proc) word.Word {
		p.Exec(func() { p.Stall() })
		return word.FromValue(1) // unreachable
	}
	fine := func(p *Proc) word.Word {
		c.Incr(p)
		return word.FromValue(2)
	}
	res, err := Run(Config{
		Programs:  []Program{stuck, fine},
		Scheduler: sim.NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled[0] || res.Decided[0] {
		t.Error("process 0 must be stalled, undecided")
	}
	if !res.Decided[1] || res.Decisions[1].Value() != 2 {
		t.Error("process 1 must decide 2 despite the stalled peer")
	}
}

func TestDecideWithoutStepsIsDeterministicallyTraced(t *testing.T) {
	// Processes that decide without any shared step must appear in the
	// trace in id order regardless of goroutine start order.
	for trial := 0; trial < 20; trial++ {
		log := trace.New()
		mk := func(id int64) Program {
			return func(p *Proc) word.Word { return word.FromValue(id) }
		}
		_, err := Run(Config{
			Programs:  []Program{mk(10), mk(11), mk(12)},
			Scheduler: sim.NewRoundRobin(),
			Log:       log,
		})
		if err != nil {
			t.Fatal(err)
		}
		evs := log.Events()
		if len(evs) != 3 {
			t.Fatalf("trace has %d events, want 3", len(evs))
		}
		for i, e := range evs {
			if e.Kind != trace.EventDecide || e.Proc != i {
				t.Fatalf("trial %d: event %d = %+v, want decide by p%d", trial, i, e, i)
			}
		}
	}
}

func TestTraceRecordsStepsAndDecisions(t *testing.T) {
	c := &counter{}
	log := trace.New()
	prog := func(p *Proc) word.Word {
		c.Incr(p)
		return word.FromValue(int64(p.ID()))
	}
	_, err := Run(Config{
		Programs:  []Program{prog, prog},
		Scheduler: sim.NewRoundRobin(),
		Log:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	var writes, decides int
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.EventWrite:
			writes++
		case trace.EventDecide:
			decides++
		}
	}
	if writes != 2 || decides != 2 {
		t.Errorf("writes=%d decides=%d, want 2 and 2", writes, decides)
	}
}

func TestObserverSeesEvents(t *testing.T) {
	c := &counter{}
	var seen []trace.Event
	prog := func(p *Proc) word.Word {
		c.Incr(p)
		return word.Bottom
	}
	_, err := Run(Config{
		Programs:  []Program{prog},
		Scheduler: sim.NewRoundRobin(),
		Observer:  func(e trace.Event) { seen = append(seen, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 { // one write, one decide
		t.Errorf("observer saw %d events, want 2", len(seen))
	}
}

func TestObserverWithLogSeesIndexedEvents(t *testing.T) {
	c := &counter{}
	var indices []int
	prog := func(p *Proc) word.Word {
		c.Incr(p)
		c.Incr(p)
		return word.Bottom
	}
	_, err := Run(Config{
		Programs:  []Program{prog},
		Scheduler: sim.NewRoundRobin(),
		Log:       trace.New(),
		Observer:  func(e trace.Event) { indices = append(indices, e.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		if idx != i {
			t.Errorf("observer event %d has index %d", i, idx)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Scheduler: sim.NewRoundRobin()}); err == nil {
		t.Error("empty programs must error")
	}
	if _, err := Run(Config{Programs: []Program{func(*Proc) word.Word { return word.Bottom }}}); err == nil {
		t.Error("missing scheduler must error")
	}
}

func TestSchedulerStopAbandonsCleanly(t *testing.T) {
	c := &counter{}
	prog := func(p *Proc) word.Word {
		for i := 0; i < 100; i++ {
			c.Incr(p)
		}
		return word.Bottom
	}
	steps := 0
	sched := sim.SchedulerFunc(func(enabled []int) (int, bool) {
		steps++
		if steps > 5 {
			return 0, false
		}
		return enabled[0], true
	})
	res, err := Run(Config{
		Programs:  []Program{prog, prog},
		Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("must report Stopped")
	}
	if c.n != 5 {
		t.Errorf("counter = %d, want 5", c.n)
	}
}

package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/word"
)

// steppedCounter is a stepped program for testing the runner and the
// schedulers: each process takes incrs steps, each incrementing a shared
// count, recording the new count and noting who ran it, and decides its id
// in its last step. With incrs 0 a process never decides.
type steppedCounter struct {
	incrs int
	left  []int
	n     int
	order []int
}

func newCounter(procs, incrs int) *steppedCounter {
	return &steppedCounter{incrs: incrs, left: make([]int, procs)}
}

func (c *steppedCounter) Begin(id int) { c.left[id] = c.incrs }

func (c *steppedCounter) Step(id int, rec *StepRecorder) StepOutcome {
	c.n++
	c.order = append(c.order, id)
	rec.Record(trace.Event{Kind: trace.EventWrite, Proc: id, Value: word.FromValue(int64(c.n))})
	if c.left[id]--; c.left[id] == 0 {
		return StepOutcome{Done: true, Decision: word.FromValue(int64(id))}
	}
	return StepOutcome{}
}

// run executes the counter once under sched.
func (c *steppedCounter) run(sched Scheduler) (*Result, error) {
	return RunStepped(context.Background(), SteppedConfig{Procs: len(c.left), Program: c, Scheduler: sched})
}

// steppedFunc is a stepped program given by its step function.
type steppedFunc func(id int, rec *StepRecorder) StepOutcome

func (steppedFunc) Begin(int) {}

func (f steppedFunc) Step(id int, rec *StepRecorder) StepOutcome { return f(id, rec) }

func TestRunAllProcessesDecide(t *testing.T) {
	c := newCounter(3, 3)
	res, err := c.run(NewRoundRobin())
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

// wantOrder fails unless the counter's steps ran in exactly the given order.
func wantOrder(t *testing.T, c *steppedCounter, want ...int) {
	t.Helper()
	if !reflect.DeepEqual(c.order, want) {
		t.Fatalf("order = %v, want %v", c.order, want)
	}
}

func TestRoundRobinInterleavesFairly(t *testing.T) {
	c := newCounter(2, 2)
	if _, err := c.run(NewRoundRobin()); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, c, 0, 1, 0, 1)
}

func TestSoloRunsSequentially(t *testing.T) {
	c := newCounter(3, 2)
	if _, err := c.run(NewSolo(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, c, 2, 2, 0, 0, 1, 1)
}

func TestSoloOmittedProcessNeverRuns(t *testing.T) {
	res, err := newCounter(2, 1).run(NewSolo(1)) // process 0 is never scheduled
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("execution must report Stopped")
	}
	if res.Decided[0] {
		t.Error("process 0 must not decide")
	}
	if !res.Decided[1] {
		t.Error("process 1 must decide")
	}
}

func TestScriptReplaysExactOrder(t *testing.T) {
	c := newCounter(2, 2)
	res, err := c.run(NewScript(1, 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder(t, c, 1, 1, 0, 0)
	if res.Stopped {
		t.Error("fully-replayed script covering all steps ends naturally, not stopped")
	}
}

func TestScriptExhaustionStops(t *testing.T) {
	c := newCounter(2, 2)
	res, err := c.run(NewScript(0)) // one step only
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("exhausted script must stop the execution")
	}
	wantOrder(t, c, 0)
}

func TestRandomSchedulerIsSeedDeterministic(t *testing.T) {
	runWith := func(seed int64) []int {
		c := newCounter(3, 5)
		if _, err := c.run(NewRandom(seed)); err != nil {
			t.Fatal(err)
		}
		return c.order
	}
	if a, b := runWith(7), runWith(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestStepLimitViolation(t *testing.T) {
	spinner := newCounter(1, 0)
	res, err := RunStepped(context.Background(), SteppedConfig{
		Procs:     1,
		Program:   spinner,
		Scheduler: NewRoundRobin(),
		StepLimit: 10,
	})
	if !errors.Is(err, ErrWaitFreedom) {
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
	prog := steppedFunc(func(int, *StepRecorder) StepOutcome { panic("boom") })
	_, err := RunStepped(context.Background(), SteppedConfig{Procs: 1, Program: prog, Scheduler: NewRoundRobin()})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != 0 || pe.Value != "boom" {
		t.Errorf("PanicError = %+v", pe)
	}
}

func TestStallModelsNonresponsiveFault(t *testing.T) {
	// Process 0 stalls in its first step; process 1 decides 2 in its.
	prog := steppedFunc(func(id int, _ *StepRecorder) StepOutcome {
		if id == 0 {
			return StepOutcome{Stalled: true}
		}
		return StepOutcome{Done: true, Decision: word.FromValue(2)}
	})
	res, err := RunStepped(context.Background(), SteppedConfig{Procs: 2, Program: prog, Scheduler: NewRoundRobin()})
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

func TestTraceRecordsStepsAndDecisions(t *testing.T) {
	log := trace.New()
	c := newCounter(2, 1)
	if _, err := RunStepped(context.Background(), SteppedConfig{Procs: 2, Program: c, Scheduler: NewRoundRobin(), Log: log}); err != nil {
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
	var seen []trace.Event
	_, err := RunStepped(context.Background(), SteppedConfig{
		Procs:     1,
		Program:   newCounter(1, 1),
		Scheduler: NewRoundRobin(),
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
	var indices []int
	_, err := RunStepped(context.Background(), SteppedConfig{
		Procs:     1,
		Program:   newCounter(1, 2),
		Scheduler: NewRoundRobin(),
		Log:       trace.New(),
		Observer:  func(e trace.Event) { indices = append(indices, e.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indices, []int{0, 1, 2}) { // two writes, one decide
		t.Errorf("observer saw indices %v, want [0 1 2]", indices)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	c := newCounter(1, 1)
	r := NewStepped(1)
	if _, err := r.Run(ctx, SteppedConfig{Procs: 1, Scheduler: NewRoundRobin()}); err == nil {
		t.Error("missing program must error")
	}
	if _, err := r.Run(ctx, SteppedConfig{Procs: 1, Program: c}); err == nil {
		t.Error("missing scheduler must error")
	}
	if _, err := r.Run(ctx, SteppedConfig{Procs: 2, Program: c, Scheduler: NewRoundRobin()}); err == nil {
		t.Error("a process count other than the runner's must error")
	}
	if _, err := RunStepped(ctx, SteppedConfig{Program: c, Scheduler: NewRoundRobin()}); err == nil {
		t.Error("no processes must error")
	}
}

func TestSchedulerStopAbandonsCleanly(t *testing.T) {
	c := newCounter(2, 100)
	steps := 0
	res, err := c.run(SchedulerFunc(func(enabled []int) (int, bool) {
		steps++
		if steps > 5 {
			return 0, false
		}
		return enabled[0], true
	}))
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

package refsim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/word"
)

// counterRunners run one two-process execution, in which each process takes
// incrs counter increments and then decides its id, on the goroutine-gated
// Arena (sim's tests hold the stepped runner to the same cases). Each
// returns the result, the number of increments performed, and the error.
var counterRunners = []struct {
	name string
	run  func(ctx context.Context, incrs int, sched sim.Scheduler) (*sim.Result, int, error)
}{
	{"arena", func(ctx context.Context, incrs int, sched sim.Scheduler) (*sim.Result, int, error) {
		c := &counter{}
		prog := func(p *Proc) word.Word {
			for i := 0; i < incrs; i++ {
				c.Incr(p)
			}
			return word.FromValue(int64(p.ID()))
		}
		res, err := RunContext(ctx, Config{Programs: []Program{prog, prog}, Scheduler: sched})
		return res, c.n, err
	}},
}

// TestRunContextCancelMidExecution: cancelling the context between steps
// must abandon the execution and return the partial result, marked Stopped,
// together with the context error.
func TestRunContextCancelMidExecution(t *testing.T) {
	for _, r := range counterRunners {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			grants := 0
			sched := sim.SchedulerFunc(func(enabled []int) (int, bool) {
				grants++
				if grants == 5 {
					cancel()
				}
				return enabled[0], true
			})
			res, n, err := r.run(ctx, 100, sched)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result returned")
			}
			if !res.Stopped {
				t.Error("partial result not marked Stopped")
			}
			if res.Decided[0] || res.Decided[1] {
				t.Error("a process decided in an abandoned execution")
			}
			// The fifth grant's step completes; the poll before the
			// sixth sees the cancellation.
			if n != 5 {
				t.Errorf("counter = %d, want 5 steps granted", n)
			}
		})
	}
}

// TestRunContextPreCancelled: an already-cancelled context must stop the
// execution before any step is granted.
func TestRunContextPreCancelled(t *testing.T) {
	for _, r := range counterRunners {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, n, err := r.run(ctx, 1, sim.NewRoundRobin())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want canceled", err)
			}
			if res == nil || !res.Stopped {
				t.Fatalf("want stopped partial result, got %+v", res)
			}
			if n != 0 {
				t.Errorf("counter = %d, want 0 steps granted", n)
			}
		})
	}
}

// pollCountingCtx counts how often a runner polls it for cancellation.
// Runners poll from their calling goroutine only, so plain counters do.
type pollCountingCtx struct {
	context.Context
	errs, dones int
}

func (c *pollCountingCtx) Err() error {
	c.errs++
	return c.Context.Err()
}

func (c *pollCountingCtx) Done() <-chan struct{} {
	c.dones++
	return c.Context.Done()
}

// TestRunPollsDoneOncePerRun pins the cancellation poll off the hot path:
// an uncancelled run reads ctx.Done() once and never calls ctx.Err(). A
// cancelCtx's Err takes the context's mutex, and the engine's workers all
// replay under one context, so a per-step Err serializes them.
func TestRunPollsDoneOncePerRun(t *testing.T) {
	const runs = 3
	for _, r := range counterRunners {
		t.Run(r.name, func(t *testing.T) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &pollCountingCtx{Context: parent}
			for i := 0; i < runs; i++ {
				res, n, err := r.run(ctx, 10, sim.NewRoundRobin())
				if err != nil {
					t.Fatal(err)
				}
				if res.Stopped || !res.Decided[0] || !res.Decided[1] || n != 20 {
					t.Fatalf("run %d: stopped=%v decided=%v after %d steps, want a completed 20-step execution",
						i, res.Stopped, res.Decided, n)
				}
			}
			if ctx.errs != 0 || ctx.dones != runs {
				t.Errorf("%d runs called Err %d times and Done %d times, want 0 and %d",
					runs, ctx.errs, ctx.dones, runs)
			}
		})
	}
}

// TestRunBackgroundEquivalence: Run is RunContext with a background
// context — completed executions are identical.
func TestRunBackgroundEquivalence(t *testing.T) {
	mk := func() Config {
		c := &counter{}
		prog := func(p *Proc) word.Word {
			for i := 0; i < 3; i++ {
				c.Incr(p)
			}
			return word.FromValue(int64(p.ID()))
		}
		return Config{Programs: []Program{prog, prog}, Scheduler: sim.NewRoundRobin()}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stopped || b.Stopped {
		t.Fatal("completed executions marked Stopped")
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] || a.Steps[i] != b.Steps[i] {
			t.Errorf("process %d: Run and RunContext diverge", i)
		}
	}
}

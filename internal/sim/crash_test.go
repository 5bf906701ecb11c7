package sim

import (
	"slices"
	"testing"
)

func TestCrashSchedulerStopsProcess(t *testing.T) {
	res, err := newCounter(2, 5).run(NewCrash(NewRoundRobin(), map[int]int{0: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided[0] {
		t.Error("crashed process must not decide")
	}
	if !res.Decided[1] {
		t.Error("surviving process must decide")
	}
	if res.Steps[0] != 2 {
		t.Errorf("crashed process took %d steps, want 2", res.Steps[0])
	}
	if res.Steps[1] != 5 {
		t.Errorf("survivor took %d steps, want 5", res.Steps[1])
	}
	if !res.Stopped {
		t.Error("execution ends stopped once only crashed processes remain")
	}
}

func TestCrashFromStartNeverRuns(t *testing.T) {
	c := newCounter(3, 1)
	res, err := c.run(NewCrash(NewRoundRobin(), map[int]int{1: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(c.order, 1) {
		t.Fatal("process 1 stepped despite crashing at step 0")
	}
	if res.Decided[1] {
		t.Error("process 1 must not decide")
	}
}

func TestCrashMapIsolatedFromCaller(t *testing.T) {
	m := map[int]int{0: 1}
	s := NewCrash(NewRoundRobin(), m)
	delete(m, 0)
	// First pick for proc 0 succeeds...
	if pick, ok := s.Next([]int{0}); !ok || pick != 0 {
		t.Fatal("first step must be granted")
	}
	// ...second must be refused (limit 1 still applies).
	if _, ok := s.Next([]int{0}); ok {
		t.Fatal("crash limit lost after caller mutated the map")
	}
}

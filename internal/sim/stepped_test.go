package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestSteppedRestoreResumes: a run rewound to a between-steps state that
// Save took from inside the scheduler, with the program's own state and the
// log rewound alongside, resumes to exactly the end an uninterrupted run
// reaches — same step counts, decisions and trace.
func TestSteppedRestoreResumes(t *testing.T) {
	const incrs, saveAt, stopAt = 4, 3, 6
	// The schedule is a function of the grant index alone, so a resumed
	// run repeats the uninterrupted run's decisions once the index is
	// rewound with the state.
	g := 0
	sched := SchedulerFunc(func(enabled []int) (int, bool) {
		p := enabled[(g*7/3)%len(enabled)]
		g++
		return p, true
	})

	ref := newCounter(2, incrs)
	refLog := trace.New()
	want, err := RunStepped(context.Background(), SteppedConfig{Procs: 2, Program: ref, Log: refLog, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}

	c := newCounter(2, incrs)
	log := trace.New()
	r := NewStepped(2)
	var (
		snap     SteppedSnapshot
		left     []int
		n, logN  int
		saved    bool
		resuming bool
	)
	cfg := SteppedConfig{Procs: 2, Program: c, Log: log, Scheduler: SchedulerFunc(func(enabled []int) (int, bool) {
		if g == saveAt && !saved {
			r.Save(&snap)
			left, n, logN, saved = append([]int(nil), c.left...), c.n, log.Len(), true
		}
		if g == stopAt && !resuming {
			return 0, false
		}
		return sched(enabled)
	})}
	g = 0
	if err := r.Start(cfg); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Resume(context.Background()); err != nil || !res.Stopped {
		t.Fatalf("first leg: stopped=%v err=%v, want a stop at grant %d", res != nil && res.Stopped, err, stopAt)
	}

	resuming = true
	r.Restore(&snap)
	copy(c.left, left)
	c.n = n
	log.Truncate(logN)
	g = saveAt
	got, err := r.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Stopped || !reflect.DeepEqual(got.Steps, want.Steps) || !reflect.DeepEqual(got.Decided, want.Decided) ||
		!reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Errorf("resumed run: steps %v decided %v decisions %v stopped %v, want %v %v %v",
			got.Steps, got.Decided, got.Decisions, got.Stopped, want.Steps, want.Decided, want.Decisions)
	}
	if !reflect.DeepEqual(log.Events(), refLog.Events()) {
		t.Errorf("resumed trace differs:\n%v\nwant\n%v", log, refLog)
	}
}

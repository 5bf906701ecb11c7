package sim

import (
	"math/rand"

	"repro/internal/seeded"
)

// RoundRobin cycles through enabled processes in id order, giving each one
// step in turn. It is the canonical "fair" interleaving.
type RoundRobin struct {
	last int
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next implements Scheduler.
func (s *RoundRobin) Next(enabled []int) (int, bool) {
	for _, id := range enabled {
		if id > s.last {
			s.last = id
			return id, true
		}
	}
	s.last = enabled[0]
	return enabled[0], true
}

// Random picks uniformly among enabled processes from a deterministic seeded
// source, so a given seed replays the same interleaving.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random {
	return &Random{rng: seeded.New(seed)}
}

// Next implements Scheduler.
func (s *Random) Next(enabled []int) (int, bool) {
	return enabled[s.rng.Intn(len(enabled))], true
}

// Solo runs processes to completion one at a time in the given order: the
// first process runs until it decides, then the second, and so on. Processes
// absent from the order never run. Solo runs are the building block of the
// paper's impossibility executions ("p0 runs alone until it returns...").
type Solo struct {
	order []int
	pos   int
}

// NewSolo returns a scheduler running the given process ids sequentially.
func NewSolo(order ...int) *Solo { return &Solo{order: order} }

// Next implements Scheduler.
func (s *Solo) Next(enabled []int) (int, bool) {
	for s.pos < len(s.order) {
		want := s.order[s.pos]
		for _, id := range enabled {
			if id == want {
				return id, true
			}
		}
		// want has finished (or stalled); move to the next phase.
		s.pos++
	}
	return 0, false
}

// Crash wraps a scheduler with fail-stop process crashes: process id takes
// no further steps once it has executed afterSteps steps. Wait-freedom — the
// paper's §2 requirement that every process finishes regardless of the
// behavior of the others — is exactly the guarantee that survivors still
// decide under this scheduler.
type Crash struct {
	inner   Scheduler
	crashAt map[int]int // proc id -> steps after which it crashes
	taken   map[int]int
}

// NewCrash returns a scheduler that crashes each listed process after it
// has taken the given number of steps (0 = crashed from the start).
func NewCrash(inner Scheduler, crashAt map[int]int) *Crash {
	ca := make(map[int]int, len(crashAt))
	for id, n := range crashAt {
		ca[id] = n
	}
	return &Crash{inner: inner, crashAt: ca, taken: make(map[int]int)}
}

// Next implements Scheduler.
func (s *Crash) Next(enabled []int) (int, bool) {
	alive := enabled[:0:0]
	for _, id := range enabled {
		if limit, crashes := s.crashAt[id]; crashes && s.taken[id] >= limit {
			continue
		}
		alive = append(alive, id)
	}
	if len(alive) == 0 {
		return 0, false // only crashed processes remain
	}
	pick, ok := s.inner.Next(alive)
	if ok {
		s.taken[pick]++
	}
	return pick, ok
}

// Script replays a fixed sequence of process ids, one per step; when the
// script is exhausted (or the scripted process is not enabled) the execution
// stops. Used to replay recorded counterexamples exactly.
type Script struct {
	ids []int
	pos int
}

// NewScript returns a scheduler replaying the given step sequence.
func NewScript(ids ...int) *Script { return &Script{ids: ids} }

// Next implements Scheduler.
func (s *Script) Next(enabled []int) (int, bool) {
	if s.pos >= len(s.ids) {
		return 0, false
	}
	want := s.ids[s.pos]
	for _, id := range enabled {
		if id == want {
			s.pos++
			return id, true
		}
	}
	return 0, false
}

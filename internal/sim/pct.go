package sim

import (
	"math/rand"

	"repro/internal/seeded"
)

// PCT is a probabilistic concurrency testing scheduler (Burckhardt et al.):
// every process gets a random distinct priority, the highest-priority
// enabled process always runs, and at d−1 random step indices the running
// priorities are perturbed by demoting the current leader to the bottom.
//
// For bugs of "depth" d (requiring d ordering constraints), PCT finds a
// triggering schedule with probability ≥ 1/(n·k^(d−1)) per run — usually
// far better than uniform random walks, because it produces long solo
// bursts punctuated by a few adversarial preemptions. The paper's
// impossibility executions have exactly that shape (solo runs + targeted
// switches), which makes PCT a natural stress engine for them.
type PCT struct {
	rng          *rand.Rand
	priority     map[int]int
	nextBottom   int
	step         int
	changePoints map[int]bool
}

// NewPCT returns a PCT scheduler. maxSteps estimates the execution length
// (change points are drawn uniformly from [1, maxSteps]); depth is the
// targeted bug depth d (d−1 priority change points).
func NewPCT(seed int64, maxSteps, depth int) *PCT {
	if maxSteps < 1 {
		maxSteps = 1
	}
	if depth < 1 {
		depth = 1
	}
	rng := seeded.New(seed)
	cps := make(map[int]bool, depth-1)
	for i := 0; i < depth-1; i++ {
		cps[1+rng.Intn(maxSteps)] = true
	}
	return &PCT{
		rng:          rng,
		priority:     make(map[int]int),
		changePoints: cps,
	}
}

// Next implements Scheduler.
func (s *PCT) Next(enabled []int) (int, bool) {
	s.step++

	// Assign initial priorities lazily: a fresh random priority above the
	// demotion floor, so the relative order of processes is uniformly
	// random (ties broken by lower id, deterministically).
	for _, id := range enabled {
		if _, ok := s.priority[id]; !ok {
			s.priority[id] = s.rng.Intn(1 << 30)
		}
	}

	// Highest-priority enabled process runs.
	best := enabled[0]
	for _, id := range enabled[1:] {
		if s.priority[id] > s.priority[best] {
			best = id
		}
	}

	// Priority change point: demote the leader below everyone.
	if s.changePoints[s.step] {
		s.nextBottom--
		s.priority[best] = s.nextBottom
		// Re-pick after the demotion.
		best = enabled[0]
		for _, id := range enabled[1:] {
			if s.priority[id] > s.priority[best] {
				best = id
			}
		}
	}
	return best, true
}

package explore

import (
	"sync"
	"sync/atomic"
)

// task is one unexplored region of the execution tree: the subtree rooted at
// path, enumerated with backtracking floor `floor`. A freshly donated task
// has floor == len(path)-1: it starts at the donor's next untaken
// alternative and its own backtracking at the floor position enumerates the
// remaining alternatives of that branch point (one consolidated task per
// donation, so donated subtrees stay large). A task checkpointed
// mid-enumeration keeps the worker's current position as path with the
// original floor, so resuming it revisits the leaves the worker had not
// finished.
type task struct {
	path  []int
	floor int
}

// frontier is the shared pool of unexplored tasks. Workers pop the most
// recently pushed task (LIFO keeps the pool depth-first and therefore small)
// and donate subtrees back when the pool runs low, so work granularity
// adapts to the shape of the execution tree: a deep skinny tree stays one
// chunk, a bushy tree fans out immediately.
//
// For crash-safe checkpointing the frontier also tracks, per worker, the
// task it currently holds (a slot, assigned under the frontier lock inside
// pop so no task is ever in flight unaccounted), and snapshot takes one
// consistent cut of the run. Lock order: f.mu, then slot locks in worker
// order, then whatever a settle or read callback takes.
type frontier struct {
	mu     sync.Mutex
	wait   sync.Cond
	stack  []task
	busy   int  // workers holding a popped task
	closed bool // drained (or aborted): all pops fail from now on

	slots []slot

	// lowWater is the pool size below which workers donate subtrees.
	lowWater int
	// size mirrors len(stack) so starving() needs no lock on the replay
	// hot path.
	size atomic.Int64
}

// slot is one worker's claimed task, updated as the worker's enumeration
// progresses.
type slot struct {
	mu     sync.Mutex
	active bool
	path   []int
	floor  int
}

// set points the slot at the remaining subtree (path, floor). The caller
// holds s.mu.
func (s *slot) set(path []int, floor int) {
	s.active = true
	s.path = append(s.path[:0], path...)
	s.floor = floor
}

func newFrontier(tasks []task, workers int) *frontier {
	f := &frontier{stack: tasks, slots: make([]slot, workers), lowWater: 2 * workers}
	f.wait.L = &f.mu
	f.size.Store(int64(len(tasks)))
	return f
}

// pop blocks until a task is available and claims it into worker w's slot.
// It returns ok=false when the exploration is over: every task was processed
// and no busy worker remains to donate more, or the frontier was aborted.
func (f *frontier) pop(w int) (task, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return task{}, false
		}
		if n := len(f.stack); n > 0 {
			t := f.stack[n-1]
			f.stack = f.stack[:n-1]
			f.size.Store(int64(n - 1))
			f.busy++
			s := &f.slots[w]
			s.mu.Lock()
			s.set(t.path, t.floor)
			s.mu.Unlock()
			return t, true
		}
		if f.busy == 0 {
			// Nobody is working, nobody can donate: drained.
			f.closed = true
			f.wait.Broadcast()
			return task{}, false
		}
		f.wait.Wait()
	}
}

// publish records worker w's enumeration progress in one step with
// settle, which moves the worker's tally of the leaves it ran into the
// shared counters: the subtree rooted at path (floor = backtracking floor)
// is what remains of its claimed task, or nothing when finished.
func (f *frontier) publish(w int, finished bool, path []int, floor int, settle func()) {
	s := &f.slots[w]
	s.mu.Lock()
	settle()
	if finished {
		s.active = false
	} else {
		s.set(path, floor)
	}
	s.mu.Unlock()
}

// donate queues t, a subtree carved from worker w's task, and publishes
// what remains of the task in the same step, so no snapshot sees the
// donated subtree both queued and in the slot, or in neither.
func (f *frontier) donate(w int, t task, finished bool, path []int, floor int, settle func()) {
	f.mu.Lock()
	f.stack = append(f.stack, t)
	f.size.Store(int64(len(f.stack)))
	f.publish(w, finished, path, floor, settle)
	f.mu.Unlock()
	f.wait.Broadcast()
}

// release publishes worker w's last progress on its claim (see publish)
// and ends the claim taken by pop. finished reports that the task's subtree
// was fully enumerated (or is covered elsewhere); an abandoned task —
// cancellation, execution cap — stays in the slot at (path, floor), the
// first leaf the worker did not run, so snapshot still accounts for it.
func (f *frontier) release(w int, finished bool, path []int, floor int, settle func()) {
	f.publish(w, finished, path, floor, settle)
	f.mu.Lock()
	f.busy--
	idle := f.busy == 0 && len(f.stack) == 0
	f.mu.Unlock()
	if idle {
		f.wait.Broadcast()
	}
}

// abort unblocks all waiters and fails every future pop. Queued tasks stay
// in the stack so a post-abort snapshot still covers them.
func (f *frontier) abort() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.wait.Broadcast()
}

// snapshot returns every unfinished task — the queued stack plus all
// claimed slots, deep-copied so callers may serialize them while workers
// continue — and calls read, which reads the run's shared counters, in the
// same critical section. Together they are one consistent cut. A worker
// counts the leaves it runs in a local tally and moves them into the
// shared counters (its settle function) only inside a slot update —
// publish, donate or release — so whenever its slot lock is free, its slot
// starts at the first leaf of its task the counters do not hold. snapshot
// holds the frontier lock and every slot lock while it reads the queue,
// the slots and the counters, so no pop, donation, flush or publish is
// half done in what it sees: every leaf is either counted or below exactly
// one returned task, never both and never neither. A resume from the cut
// therefore runs no counted leaf again and loses none, and a complete
// resumed run counts exactly the executions of an uninterrupted one.
func (f *frontier) snapshot(read func()) []task {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]task, 0, len(f.stack)+len(f.slots))
	for _, t := range f.stack {
		out = append(out, task{path: append([]int(nil), t.path...), floor: t.floor})
	}
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.active {
			out = append(out, task{path: append([]int(nil), s.path...), floor: s.floor})
		}
	}
	read()
	return out
}

// starving reports that the pool has fewer pending tasks than the low-water
// mark, asking busy workers to donate a subtree.
func (f *frontier) starving() bool {
	return f.size.Load() < int64(f.lowWater)
}

// pending returns the number of queued tasks (for progress reports).
func (f *frontier) pending() int {
	return int(f.size.Load())
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Universal is Herlihy's wait-free universal construction instantiated over
// this package's consensus protocols: the result the paper leans on when it
// calls consensus "universal" (Sections 1–2). Unlike Log.Append — which can
// in principle lose every slot under perpetual contention — Execute is
// wait-free via helping: every process announces its pending command, and
// slot L gives priority to the announced command of process L mod n, so any
// command is decided within n slots of its announcement no matter how the
// scheduler behaves.
//
// Each slot is one single-shot consensus instance built from (possibly
// faulty) CAS objects; the construction therefore inherits the (f, t, n)
// fault tolerance of the protocol it is instantiated with.
//
// Commands must be unique across all Execute calls (use EncodeCmd).
type Universal struct {
	n      int
	proto  Protocol
	newEnv func() Env

	// announce[i] holds process i's pending command, or -1.
	announce []atomic.Int64

	mu      sync.Mutex
	slots   []*logSlot
	decided []int64
	prefix  int           // length of the decided prefix (maintained incrementally)
	applied map[int64]int // command -> slot index
}

// NewUniversal builds a universal object for n processes (ids 0..n-1) whose
// slots run the given protocol over environments from newEnv. As with every
// construction in this package, n must not exceed the protocol's MaxProcs
// for its fault tolerance to apply.
func NewUniversal(n int, proto Protocol, newEnv func() Env) *Universal {
	if n < 1 {
		panic("core: universal object needs at least one process")
	}
	if proto == nil || newEnv == nil {
		panic("core: NewUniversal needs a protocol and an environment factory")
	}
	u := &Universal{
		n:        n,
		proto:    proto,
		newEnv:   newEnv,
		announce: make([]atomic.Int64, n),
		applied:  make(map[int64]int),
	}
	for i := range u.announce {
		u.announce[i].Store(-1)
	}
	return u
}

// length returns the decided prefix length.
func (u *Universal) length() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.prefix
}

func (u *Universal) slot(i int) *logSlot {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(u.slots) <= i {
		u.slots = append(u.slots, &logSlot{env: u.newEnv()})
		u.decided = append(u.decided, -1)
	}
	return u.slots[i]
}

func (u *Universal) record(i int, cmd int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.decided[i] < 0 {
		u.decided[i] = cmd
		if _, dup := u.applied[cmd]; !dup {
			u.applied[cmd] = i
		}
		for u.prefix < len(u.decided) && u.decided[u.prefix] >= 0 {
			u.prefix++
		}
	}
}

// appliedAt returns the slot a command was decided into, if any.
func (u *Universal) appliedAt(cmd int64) (int, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	i, ok := u.applied[cmd]
	return i, ok
}

// Execute appends cmd for process proc and returns the slot it was decided
// into. The helping discipline makes it wait-free: every slot L whose
// proposers all read announce[L mod n] after this call's announcement
// decides this command, and at most one slot per concurrently lagging
// process can be lost to a stale proposal — so the number of slots one call
// competes for is bounded by the backlog at call time plus O(n).
func (u *Universal) Execute(proc int, cmd int64) int {
	ValidateInput(cmd)
	if proc < 0 || proc >= u.n {
		panic(fmt.Sprintf("core: process %d out of range [0,%d)", proc, u.n))
	}
	u.announce[proc].Store(cmd)
	defer u.announce[proc].CompareAndSwap(cmd, -1)

	for {
		// Read the prefix before checking whether cmd is applied: every
		// slot below L is then recorded, so a cmd that helpers decided
		// there is seen here and is not proposed again for slot L.
		L := u.length()
		if i, ok := u.appliedAt(cmd); ok {
			return i
		}

		// Helping: slot L belongs to process L mod n. If that process
		// has announced a not-yet-applied command, everyone proposes
		// it; otherwise propose our own.
		proposal := cmd
		if helped := u.announce[L%u.n].Load(); helped >= 0 {
			if _, done := u.appliedAt(helped); !done {
				proposal = helped
			}
		}

		s := u.slot(L)
		dec := s.decide(u.proto, proposal)
		u.record(L, dec)
	}
}

// Get returns the decided command of slot i, if known.
func (u *Universal) Get(i int) (int64, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if i < 0 || i >= len(u.decided) || u.decided[i] < 0 {
		return 0, false
	}
	return u.decided[i], true
}

// Len returns the decided prefix length.
func (u *Universal) Len() int { return u.length() }

// Snapshot returns the decided prefix of the command sequence.
func (u *Universal) Snapshot() []int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	var out []int64
	for _, v := range u.decided {
		if v < 0 {
			break
		}
		out = append(out, v)
	}
	return out
}

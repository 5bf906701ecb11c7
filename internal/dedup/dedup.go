// Package dedup eliminates duplicate work during exploration of the
// execution tree: a sharded, lock-striped set of fingerprints over canonical
// execution states (register contents, per-process local-state digests, and
// pending fault budgets — see Tracker). Many interleavings converge to the
// same state; once one subtree rooted at a state has been claimed, every
// other path reaching that state can be pruned, turning exponential
// re-exploration of converging interleavings into a visited-set walk.
//
// The set keeps, per state, the lexicographically least choice path seen to
// reach it. A path is pruned only when a strictly smaller path already
// claimed the state, which preserves the engine's canonical-counterexample
// guarantee: the lexicographically least violating leaf of the full tree is
// never cut off, because any prefix of it that loses a dedup race loses to a
// strictly smaller path whose (isomorphic) subtree contains a strictly
// smaller violating leaf — contradicting leastness. Pruning therefore
// changes how much work is done, never which verdict and counterexample are
// reported.
//
// Each of the set's shards is an open-addressing table of fixed-size
// entries, a state's full fingerprint plus the offset and length of its
// representative path in the shard's byte arena, with the shard's counters
// beside its lock. The set therefore holds no pointers, so the garbage
// collector never scans it, and a probe of an unlimited set writes only its
// own shard's memory.
package dedup

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// Fingerprint is a 128-bit hash of a canonical execution state. Two
// independent 64-bit hashes make accidental collisions (which would prune a
// genuinely different state) negligible at any realistic exploration size.
type Fingerprint struct {
	Hi, Lo uint64
}

// Decision is the outcome of a Visit.
type Decision int

const (
	// Stored means the state was new and the path was recorded as its
	// representative: keep exploring.
	Stored Decision = iota
	// Revisit means the state was already claimed by this very path: keep
	// exploring. The exploration engine does not re-probe the prefix a
	// resumed replay shares with the previous one, so it meets a Revisit
	// only at a donated task's prefix, or when two workers race to the
	// same path.
	Revisit
	// Improved means the path is strictly smaller than the recorded
	// representative and replaced it: keep exploring.
	Improved
	// Prune means a strictly smaller path already claimed the state: the
	// subtree rooted here only repeats work, abandon it.
	Prune
)

// numShards stripes the lock so concurrent workers rarely contend; a power
// of two keeps shard selection a mask.
const numShards = 64

// initialSlots is a shard's table length before its first doubling.
const initialSlots = 16

// entry is one slot of a shard's open-addressing table: a state's full
// fingerprint and where its representative path sits in the shard's arena.
type entry struct {
	hi, lo uint64
	// off is the path's first byte in the arena; n is the path length plus
	// one, so the zero entry marks an empty slot.
	off, n uint32
}

// entryBytes is the table's cost per slot.
const entryBytes = int64(unsafe.Sizeof(entry{}))

type shard struct {
	mu sync.Mutex
	// table is a linear-probing table of power-of-two length, at most ¾
	// full. A state's home slot is fp.Hi masked to the table length; the
	// shard is chosen by fp.Lo, so the two draw on independent bits.
	table []entry
	// arena holds the representative paths, one byte per choice (see
	// MaxChoice). An Improved representative is appended anew and its old
	// bytes stay behind.
	arena []uint8

	// The counters are written under mu and read under it by Stats, so a
	// probe writes no memory that another shard's probes touch.
	states, lookups, hits, improved int64

	// Padding keeps neighbouring shards' fields off one cache line.
	_ [64]byte
}

// MaxChoice is the largest choice a visited path may hold: representative
// paths are stored one byte per choice, which keeps the set's footprint a
// quarter of 32-bit cells. A choice indexes the enabled processes or a
// fault's two branches, so the exploration engine refuses dedup above
// MaxChoice+1 processes; a larger choice would be stored truncated.
const MaxChoice = 255

// fits reports whether path can join the arena with its offset and length
// still held in 32 bits. A shard whose arena is that full (4 GiB) records
// no new state or representative, like a set at its limit.
func (sh *shard) fits(path []int) bool {
	return uint64(len(sh.arena))+uint64(len(path)) < math.MaxUint32
}

// intern appends path to the arena as e's representative. Callers hold the
// shard lock and have checked fits.
func (sh *shard) intern(e *entry, path []int) {
	e.off, e.n = uint32(len(sh.arena)), uint32(len(path)+1)
	sh.arena = compact(sh.arena, path)
}

// path returns e's representative.
func (sh *shard) path(e *entry) []uint8 {
	return sh.arena[e.off : int(e.off)+int(e.n)-1]
}

// free returns the first empty slot on hi's probe sequence.
func (sh *shard) free(hi uint64) uint64 {
	mask := uint64(len(sh.table) - 1)
	i := hi & mask
	for sh.table[i].n != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table and reinserts every entry.
func (sh *shard) grow() {
	old := sh.table
	sh.table = make([]entry, 2*len(old))
	for _, e := range old {
		if e.n != 0 {
			sh.table[sh.free(e.hi)] = e
		}
	}
}

// Set is the concurrent visited-state set. The zero value is not usable;
// construct with NewSet.
type Set struct {
	shards [numShards]shard

	// limit bounds the number of stored states (0 = unlimited). When the
	// set is full, new states are not recorded — existing entries keep
	// pruning, so the cap trades hit rate for memory, never soundness.
	// used counts the states stored against a limit; an unlimited set
	// never touches it.
	limit int64
	used  atomic.Int64

	// leafLookups is the engine-side effectiveness denominator: Visit runs
	// at most once per scheduling decision a replay executes (so Lookups
	// counts decisions, not executions; a replay that resumes from a saved
	// state makes no probe at the decisions of the prefix it shares with
	// the previous one, and none at a node the partial-order reducer cuts).
	// The engine counts every replayed leaf — pruned or completed — in its
	// workers' leases and adds them through LeafLookup, making
	// Hits/LeafLookups the honest hit rate.
	leafLookups atomic.Int64
}

// NewSet returns an empty set holding at most limit states (0 = unlimited).
func NewSet(limit int) *Set {
	s := &Set{limit: int64(limit)}
	for i := range s.shards {
		s.shards[i].table = make([]entry, initialSlots)
	}
	return s
}

// Visit records or consults the state reached by the given choice path and
// decides whether the subtree rooted at that path should be explored or
// pruned. path is borrowed for the duration of the call; the set copies it
// when it becomes a representative. Every choice must lie in
// [0, MaxChoice].
func (s *Set) Visit(fp Fingerprint, path []int) Decision {
	sh := &s.shards[fp.Lo&(numShards-1)]
	sh.mu.Lock()
	d := sh.visit(s, fp, path)
	sh.mu.Unlock()
	return d
}

// visit is Visit under the shard lock.
func (sh *shard) visit(s *Set, fp Fingerprint, path []int) Decision {
	sh.lookups++
	mask := uint64(len(sh.table) - 1)
	i := fp.Hi & mask
	for ; sh.table[i].n != 0; i = (i + 1) & mask {
		e := &sh.table[i]
		if e.hi != fp.Hi || e.lo != fp.Lo {
			continue
		}
		switch comparePaths(sh.path(e), path) {
		case 0:
			return Revisit
		case -1:
			sh.hits++
			return Prune
		}
		if sh.fits(path) {
			sh.intern(e, path)
			sh.improved++
		}
		return Improved
	}
	if !sh.fits(path) || !s.reserve() {
		return Stored // full: not recorded, treated as fresh
	}
	if 4*(sh.states+1) > 3*int64(len(sh.table)) {
		sh.grow()
		i = sh.free(fp.Hi)
	}
	e := &sh.table[i]
	e.hi, e.lo = fp.Hi, fp.Lo
	sh.intern(e, path)
	sh.states++
	return Stored
}

// reserve claims room for one more state under the set's limit. An
// unlimited set never touches the shared count.
func (s *Set) reserve() bool {
	if s.limit <= 0 {
		return true
	}
	for {
		n := s.used.Load()
		if n >= s.limit {
			return false
		}
		if s.used.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// LeafLookup counts n replayed leaves that consulted the set. The
// exploration engine tallies its completed and pruned replays per worker
// and adds them once per lease.
func (s *Set) LeafLookup(n int64) { s.leafLookups.Add(n) }

// compact appends a choice path to dst in byte cells (see MaxChoice).
func compact(dst []uint8, path []int) []uint8 {
	for _, v := range path {
		dst = append(dst, uint8(v))
	}
	return dst
}

// comparePaths orders a stored representative against a candidate path:
// -1 if stored is lexicographically less, 0 if equal, +1 if greater. A
// shorter path that is a prefix of the longer orders first.
func comparePaths(stored []uint8, path []int) int {
	for i := 0; i < len(stored) && i < len(path); i++ {
		if int(stored[i]) != path[i] {
			if int(stored[i]) < path[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(stored) == len(path):
		return 0
	case len(stored) < len(path):
		return -1
	default:
		return 1
	}
}

// Stats is a point-in-time summary of the set's effectiveness.
type Stats struct {
	// States is the number of distinct states recorded.
	States int64
	// Lookups is the total number of Visit calls: in the exploration
	// engine, one per scheduling decision a replay takes past the prefix
	// it shares with the previous replay, plus a donated task's prefix at
	// its start.
	Lookups int64
	// Hits is the number of Prune decisions (subtrees eliminated).
	Hits int64
	// Improved is the number of representative replacements by a
	// lexicographically smaller path.
	Improved int64
	// LeafLookups is the number of replayed leaves that consulted the set
	// (one per execution, pruned or completed — versus Lookups, which is
	// one per scheduling decision).
	//
	// There is deliberately no "executions saved" counter here: a pruned
	// replay cuts a whole unexplored subtree, and the number of leaves
	// that subtree would have had is unknowable without exploring it. The
	// honest savings measure is leaf-level — compare Executions of a
	// deduplicated run against the same run with dedup off (scripts/bench.sh
	// records exactly that as executions_saved_fraction).
	LeafLookups int64
	// Bytes is the memory the set holds: every shard's table and path
	// arena, at capacity.
	Bytes int64
}

// HitRate is the fraction of replayed leaves that were pruned: Hits over
// LeafLookups. Dividing by all Visit calls instead (one per step — when
// every replay started from the root, nearly all of them Revisits of the
// worker's own prefix) once underreported a 60%-savings run as a 1% hit
// rate. Under partial-order reduction the engine cuts a sleep-blocked node
// before probing the set, so such a leaf counts in LeafLookups as a reduce
// prune, never as a hit. When the engine-side leaf counter is absent (bare
// Set users), it falls back to the per-step ratio.
func (s Stats) HitRate() float64 {
	if s.LeafLookups > 0 {
		return float64(s.Hits) / float64(s.LeafLookups)
	}
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats returns the current counters. It takes each shard's lock in turn,
// so it may run while workers visit.
func (s *Set) Stats() Stats {
	st := Stats{LeafLookups: s.leafLookups.Load()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.States += sh.states
		st.Lookups += sh.lookups
		st.Hits += sh.hits
		st.Improved += sh.improved
		st.Bytes += int64(cap(sh.table))*entryBytes + int64(cap(sh.arena))
		sh.mu.Unlock()
	}
	return st
}

// Register exposes the set's counters on the registry as live derived
// gauges (dedup.states, dedup.lookups, dedup.hits, dedup.improved,
// dedup.leaf_lookups, dedup.bytes), so a metrics snapshot taken mid-run
// reads the cache's effectiveness and size without extra bookkeeping on
// the Visit hot path.
func (s *Set) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("dedup.states", func() int64 { return s.Stats().States })
	reg.Func("dedup.lookups", func() int64 { return s.Stats().Lookups })
	reg.Func("dedup.hits", func() int64 { return s.Stats().Hits })
	reg.Func("dedup.improved", func() int64 { return s.Stats().Improved })
	reg.Func("dedup.leaf_lookups", s.leafLookups.Load)
	reg.Func("dedup.bytes", func() int64 { return s.Stats().Bytes })
}

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
package dedup

import (
	"sync"
	"sync/atomic"

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

type shard struct {
	mu sync.Mutex
	m  map[Fingerprint][]uint8
	// buf is the shard's interning arena: representative paths are carved
	// out of large chunks instead of one heap object per state, which
	// removes the per-store allocation from the Visit hot path.
	buf []uint8
}

// MaxChoice is the largest choice a visited path may hold: representative
// paths are stored one byte per choice, which keeps the set's footprint
// (and the GC's work over it) a quarter of 32-bit cells. A choice indexes
// the enabled processes or a fault's two branches, so the exploration
// engine refuses dedup above MaxChoice+1 processes; a larger choice would
// be stored truncated.
const MaxChoice = 255

// internChunk is the arena chunk size in cells; paths longer than a chunk
// get an exact allocation.
const internChunk = 4096

// intern copies path into the shard's arena. Callers hold the shard lock.
func (sh *shard) intern(path []int) []uint8 {
	n := len(path)
	if n > internChunk {
		return compact(make([]uint8, 0, n), path)
	}
	if len(sh.buf)+n > cap(sh.buf) {
		sh.buf = make([]uint8, 0, internChunk)
	}
	start := len(sh.buf)
	sh.buf = compact(sh.buf, path)
	return sh.buf[start : start+n : start+n]
}

// Set is the concurrent visited-state set. The zero value is not usable;
// construct with NewSet.
type Set struct {
	shards [numShards]shard

	// limit bounds the number of stored states (0 = unlimited). When the
	// set is full, new states are not recorded — existing entries keep
	// pruning, so the cap trades hit rate for memory, never soundness.
	limit int64
	size  atomic.Int64

	lookups  atomic.Int64
	hits     atomic.Int64
	improved atomic.Int64

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
		s.shards[i].m = make(map[Fingerprint][]uint8)
	}
	return s
}

// Visit records or consults the state reached by the given choice path and
// decides whether the subtree rooted at that path should be explored or
// pruned. path is borrowed for the duration of the call; the set copies it
// when it becomes a representative. Every choice must lie in
// [0, MaxChoice].
func (s *Set) Visit(fp Fingerprint, path []int) Decision {
	s.lookups.Add(1)
	sh := &s.shards[fp.Lo&(numShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	stored, ok := sh.m[fp]
	if !ok {
		if s.limit > 0 && s.size.Load() >= s.limit {
			return Stored // full: not recorded, treated as fresh
		}
		sh.m[fp] = sh.intern(path)
		s.size.Add(1)
		return Stored
	}
	switch comparePaths(stored, path) {
	case 0:
		return Revisit
	case -1:
		s.hits.Add(1)
		return Prune
	default:
		sh.m[fp] = sh.intern(path)
		s.improved.Add(1)
		return Improved
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

// Stats returns the current counters.
func (s *Set) Stats() Stats {
	return Stats{
		States:      s.size.Load(),
		Lookups:     s.lookups.Load(),
		Hits:        s.hits.Load(),
		Improved:    s.improved.Load(),
		LeafLookups: s.leafLookups.Load(),
	}
}

// Register exposes the set's counters on the registry as live derived
// gauges (dedup.states, dedup.lookups, dedup.hits, dedup.improved), so a
// metrics snapshot taken mid-run reads the cache's effectiveness without
// extra bookkeeping on the Visit hot path.
func (s *Set) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Func("dedup.states", s.size.Load)
	reg.Func("dedup.lookups", s.lookups.Load)
	reg.Func("dedup.hits", s.hits.Load)
	reg.Func("dedup.improved", s.improved.Load)
	reg.Func("dedup.leaf_lookups", s.leafLookups.Load)
}

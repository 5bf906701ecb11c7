package dedup

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// refSet is the map-backed visited set that the open-addressing tables
// replaced, kept as the oracle they are held to: each shard maps a
// fingerprint to its representative path, interned into chunked arenas,
// and the counters are shared atomics.
type refSet struct {
	shards [numShards]refShard

	limit int64
	size  atomic.Int64

	lookups  atomic.Int64
	hits     atomic.Int64
	improved atomic.Int64
}

type refShard struct {
	mu  sync.Mutex
	m   map[Fingerprint][]uint8
	buf []uint8
}

// refInternChunk is the arena chunk size in cells; paths longer than a
// chunk get an exact allocation.
const refInternChunk = 4096

func (sh *refShard) intern(path []int) []uint8 {
	n := len(path)
	if n > refInternChunk {
		return compact(make([]uint8, 0, n), path)
	}
	if len(sh.buf)+n > cap(sh.buf) {
		sh.buf = make([]uint8, 0, refInternChunk)
	}
	start := len(sh.buf)
	sh.buf = compact(sh.buf, path)
	return sh.buf[start : start+n : start+n]
}

func newRefSet(limit int) *refSet {
	s := &refSet{limit: int64(limit)}
	for i := range s.shards {
		s.shards[i].m = make(map[Fingerprint][]uint8)
	}
	return s
}

func (s *refSet) Visit(fp Fingerprint, path []int) Decision {
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

func (s *refSet) Stats() Stats {
	return Stats{
		States:   s.size.Load(),
		Lookups:  s.lookups.Load(),
		Hits:     s.hits.Load(),
		Improved: s.improved.Load(),
	}
}

// checkMatchesReference drives a Set and the reference with one stream of
// visits and requires the same decision on every visit and the same
// counters at the end. It returns how often each decision occurred.
func checkMatchesReference(t *testing.T, limit int, stream []visit) (*Set, map[Decision]int) {
	t.Helper()
	s, ref := NewSet(limit), newRefSet(limit)
	seen := make(map[Decision]int)
	for i, v := range stream {
		got, want := s.Visit(v.fp, v.path), ref.Visit(v.fp, v.path)
		if got != want {
			t.Fatalf("visit %d (%+v, %v): decision %v, reference %v", i, v.fp, v.path, got, want)
		}
		seen[got]++
	}
	got, want := s.Stats(), ref.Stats()
	got.Bytes = 0 // the reference does not measure its size
	if got != want {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
	return s, seen
}

// Shards and home slots the reference stream aims at.
const (
	collideShard = 3 // keys sharing a shard and a home slot at every size
	wrapShard    = 5 // keys whose home is the table's last slot
	growShard    = 7 // enough keys to double the table several times
)

// referenceStream returns visits that reach every corner of the table:
// repeats from a small pool, keys colliding on shard and home slot, keys
// wrapping around from the last slot, several doublings of one shard, the
// empty path, prefixes, and an Improved representative whose predecessor
// is then pruned.
func referenceStream(rng *rand.Rand) []visit {
	var stream []visit
	add := func(fp Fingerprint, path ...int) {
		stream = append(stream, visit{fp, append([]int{}, path...)})
	}
	randPath := func(maxLen, alphabet int) []int {
		p := make([]int, rng.Intn(maxLen+1))
		for i := range p {
			p[i] = rng.Intn(alphabet)
		}
		return p
	}

	// Explicit orderings on one state each.
	a, b, c := Fingerprint{Hi: 11, Lo: 1}, Fingerprint{Hi: 12, Lo: 1}, Fingerprint{Hi: 13, Lo: 2}
	add(a, 2, 1)
	add(a, 1, 5) // Improved
	add(a, 2, 1) // the old representative now prunes
	add(a, 1, 5) // Revisit
	add(b)       // the empty path
	add(b, 0)    // an extension of the stored empty path prunes
	add(b)       // Revisit
	add(c, 2, 0)
	add(c, 2) // a prefix of the stored path improves it
	add(c, 2, 0)

	// A small pool, so states repeat under many paths.
	pool := make([]Fingerprint, 40)
	for i := range pool {
		pool[i] = Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	for i := 0; i < 2000; i++ {
		add(pool[rng.Intn(len(pool))], randPath(6, 3)...)
	}

	// One shard and one home slot, at every table size, interleaved with
	// keys that wrap around from the last slot onto keys homed at slot 0.
	for k := uint64(0); k < 40; k++ {
		add(Fingerprint{Hi: 0x5a5a, Lo: collideShard + numShards*k}, randPath(4, 3)...)
		add(Fingerprint{Hi: ^uint64(0), Lo: wrapShard + numShards*k}, randPath(4, 3)...)
		add(Fingerprint{Hi: 0, Lo: wrapShard + numShards*(k+1000)}, randPath(4, 3)...)
	}

	// Several doublings of one shard, then every kind of decision on keys
	// that have moved through them.
	var grown []visit
	for i := 0; i < 3000; i++ {
		fp := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()&^(numShards-1) | growShard}
		path := randPath(8, 4)
		add(fp, path...)
		grown = append(grown, visit{fp, path})
	}
	for _, v := range grown[:500] {
		add(v.fp, v.path...)                                              // Revisit
		add(v.fp, append(v.path, 0)...)                                   // Prune: an extension
		add(v.fp, randPath(8, 4)...)                                      // any of the four
		add(Fingerprint{Hi: v.fp.Hi, Lo: v.fp.Lo + numShards}, v.path...) // a twin in the same shard and home
	}
	return stream
}

// TestSetMatchesReference holds the open-addressing set to the map-backed
// reference, decision for decision, with and without a state limit.
func TestSetMatchesReference(t *testing.T) {
	stream := referenceStream(rand.New(rand.NewSource(1)))
	for _, limit := range []int{0, 1000} {
		s, seen := checkMatchesReference(t, limit, stream)
		for _, d := range []Decision{Stored, Revisit, Improved, Prune} {
			if seen[d] == 0 {
				t.Errorf("limit %d: the stream never produced %v", limit, d)
			}
		}
		if limit != 0 {
			continue
		}
		if n := len(s.shards[growShard].table); n < 64*initialSlots {
			t.Errorf("shard %d grew to %d slots, want several doublings", growShard, n)
		}
		if wrap := s.shards[wrapShard].table; wrap[len(wrap)-1].hi != ^uint64(0) || wrap[0].n == 0 {
			t.Errorf("shard %d: the wrap-around keys missed the last slot or slot 0", wrapShard)
		}
	}
}

// FuzzSetMatchesReference decodes a stream of visits from the input: keys
// over four shards and four home-slot patterns (so collisions and
// wrap-arounds are common), and short paths over three choices.
func FuzzSetMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte("\x00\x00\x02\x01\x00\x00\x00\x02\x00\x01\x00\x00\x02\x01\x01"))
	f.Add(uint8(3), []byte("\x05\x01\x03\x02\x02\x01\x45\x01\x00\x85\x02\x04\x00\x01\x02\x00"))
	f.Fuzz(func(t *testing.T, limit uint8, data []byte) {
		his := [4]uint64{0, ^uint64(0), 0x5a5a, 1}
		var stream []visit
		for len(data) >= 3 {
			key, hi, n := data[0], data[1], int(data[2]%6)
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			path := make([]int, n)
			for i := range path {
				path[i] = int(data[i] % 3)
			}
			data = data[n:]
			fp := Fingerprint{Hi: his[hi&3] + uint64(hi>>2)<<8, Lo: uint64(key&3) | uint64(key>>2)*numShards}
			stream = append(stream, visit{fp, path})
		}
		checkMatchesReference(t, int(limit%16), stream)
	})
}

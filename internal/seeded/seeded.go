// Package seeded builds math/rand generators that yield exactly the stream
// of rand.New(rand.NewSource(seed)) without paying for math/rand's seeding.
//
// rand.NewSource fills all 607 slots of its register before the first draw:
// 1,841 steps of a Park–Miller generator, about 13 µs, and a 4.9 KB
// allocation. The samplers, schedulers and fault streams of this repository
// build one source per run and draw a few dozen numbers from most of them,
// so that seeding would cost more than all their draws. This source computes
// a register slot from the seed only when a draw first reads it, and stores
// only the values draws have written.
//
// math/rand's generator is additive lagged Fibonacci: the draw numbered k
// (from 0) writes the sum of the values at its feed and tap slots to the
// feed slot and returns it. The feed slot moves down one slot per draw, so
// each of the first 607 draws reads a feed slot no draw has written yet,
// and the tap slot is 273 draws behind: until draw 273 it too is unwritten,
// after that it holds what draw k−273 wrote. Slot i of the seeded register
// is words 21+3i, 22+3i and 23+3i of the Park–Miller generator
// x ↦ 48271·x mod (2³¹−1) started at the reduced seed, combined by shifts
// and XORed with math/rand's unexported table rngCooked[i]. Word m is
// 48271ᵐ·seed mod (2³¹−1), so a slot costs three multiplications of the
// seed by precomputed powers, and no slot depends on another. After 607 draws every
// slot has been written and the values stored are math/rand's register;
// later draws proceed as math/rand's do.
package seeded

import "math/rand"

const (
	regLen  = 607       // math/rand's register length
	regTap  = 273       // how many draws the tap slot trails the feed slot
	modulus = 1<<31 - 1 // the Park–Miller modulus
	mult    = 48271     // the Park–Miller multiplier
	seed0   = 89482311  // what math/rand seeds in place of a seed ≡ 0
	inline  = 32        // written values a source holds before it allocates
	mask63  = 1<<63 - 1 // Int63's mask
)

// slots holds, for each register slot i, the powers 48271^(21+3i),
// 48271^(22+3i) and 48271^(23+3i) mod (2³¹−1), and math/rand's
// rngCooked[i]. All are filled once, by init.
var slots [regLen]struct {
	pow    [3]uint32
	cooked int64
}

// New returns a generator whose every method yields what the same method
// of rand.New(rand.NewSource(seed)) yields, call for call, including after
// a Seed. Like math/rand's sources, it is not safe for concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.vals = s.buf[:0]
	s.Seed(seed)
	return rand.New(s)
}

// source is a rand.Source64 seeded lazily.
type source struct {
	seed uint64 // the seed reduced as math/rand reduces it, in [1, modulus)
	n    int    // draws since seeding, until it reaches regLen
	pos  int    // once n == regLen, the ring position the next draw writes
	// vals holds what the draws wrote, in draw order: the first n values
	// while n < regLen, then a ring of the last regLen values. It starts on
	// buf and moves to one regLen-entry array when buf is full.
	vals []int64
	buf  [inline]int64
}

// Seed resets the source to the stream of rand.NewSource(seed). It keeps
// the array the written values live in, so it allocates nothing.
func (s *source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = seed0
	}
	s.seed = uint64(seed)
	s.n, s.pos = 0, 0
	s.vals = s.vals[:0]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Uint64 returns the next value of math/rand's stream for the seed.
func (s *source) Uint64() uint64 {
	if s.n < regLen {
		return s.fill()
	}
	// The feed value was written regLen draws ago, at this ring
	// position; the tap value regTap draws ago.
	v := (*[regLen]int64)(s.vals)
	p := s.pos
	t := p + regLen - regTap
	if p >= regTap {
		t = p - regTap
	}
	x := v[p] + v[t]
	v[p] = x
	if p++; p == regLen {
		p = 0
	}
	s.pos = p
	return uint64(x)
}

// fill makes one of the first regLen draws: its feed slot is unwritten, and
// so is its tap slot for the first regTap draws.
func (s *source) fill() uint64 {
	n := s.n
	x := s.slot(feedSlot(n))
	if n < regTap {
		x += s.slot(regLen - 1 - n)
	} else {
		x += s.vals[n-regTap]
	}
	if n == cap(s.vals) {
		// Straight to the full register: doubling from inline would
		// allocate the long-running sources several times over.
		vals := make([]int64, n, regLen)
		copy(vals, s.vals)
		s.vals = vals
	}
	s.vals = append(s.vals, x)
	s.n = n + 1
	return uint64(x)
}

// feedSlot is the register slot draw n < regLen feeds: math/rand starts its
// feed index at regLen−regTap and decrements it before each draw.
func feedSlot(n int) int {
	f := regLen - regTap - 1 - n
	if f < 0 {
		f += regLen
	}
	return f
}

// slot computes register slot i as math/rand's Seed leaves it.
func (s *source) slot(i int) int64 {
	e := &slots[i]
	a := mulmod(uint64(e.pow[0]), s.seed)
	b := mulmod(uint64(e.pow[1]), s.seed)
	c := mulmod(uint64(e.pow[2]), s.seed)
	return int64(a<<40^b<<20^c) ^ e.cooked
}

// mulmod returns a·b mod (2³¹−1) for a, b in [0, 2³¹−1), folding the
// product's high bits onto its low ones (2³¹ ≡ 1). One fold suffices: the
// product is at most (2³¹−2)², so its high bits are at most 2³¹−4 and its
// low 31 bits at most 2³¹−1, and their sum is below twice the modulus.
func mulmod(a, b uint64) uint64 {
	v := a * b
	v = v&modulus + v>>31
	if v >= modulus {
		v -= modulus
	}
	return v
}

// init computes the slot powers and recovers rngCooked, which math/rand
// does not export, from the first regLen draws of seed 1. Each draw is the
// sum of two values: its feed slot and either its tap slot (draws before
// regTap) or the value draw n−regTap returned. Solving the later draws
// first yields slots regLen−regTap−1−n for n ≥ regTap, which include every
// tap slot the earlier draws read; the earlier draws then yield the rest.
// XORing out seed 1's Park–Miller words leaves the table.
func init() {
	p := uint64(1)
	for range 21 {
		p = mulmod(p, mult)
	}
	for i := range slots {
		for j := range slots[i].pow {
			slots[i].pow[j] = uint32(p)
			p = mulmod(p, mult)
		}
	}

	ref := rand.NewSource(1).(rand.Source64)
	var out, reg [regLen]int64
	for n := range out {
		out[n] = int64(ref.Uint64())
	}
	for n := regTap; n < regLen; n++ {
		reg[feedSlot(n)] = out[n] - out[n-regTap]
	}
	for n := 0; n < regTap; n++ {
		reg[feedSlot(n)] = out[n] - reg[regLen-1-n]
	}
	one := source{seed: 1}
	for i := range slots {
		slots[i].cooked = reg[i] ^ one.slot(i) // slots[i].cooked is still 0
	}
}

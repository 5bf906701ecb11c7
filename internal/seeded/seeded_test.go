package seeded

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testSeeds covers the seed reduction: zero and the multiples of 2³¹−1,
// which math/rand replaces by 89482311, negatives, which it wraps, the
// int64 extremes, and a few ordinary seeds.
var testSeeds = []int64{
	0, 1, 2, 7, 42, -1, -2, -42,
	modulus, -modulus, 2 * modulus, -3 * modulus, 1000 * modulus,
	modulus - 1, modulus + 1, -(modulus - 1), -(modulus + 1),
	seed0, -seed0, seed0 + modulus,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	math.MaxInt32, math.MinInt32, 1 << 40, -(1 << 40),
	1234567890123, -987654321987,
}

// draws lists the methods of rand.Rand this repository calls (Intn, Int63,
// Float64) and two more that read the source differently (Uint64 reads all
// 64 bits, Int31n takes a 32-bit path). Each returns its result as a uint64
// so that two generators' results compare exactly.
var draws = []struct {
	name string
	draw func(r *rand.Rand) uint64
}{
	{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
	{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
	{"Intn(3)", func(r *rand.Rand) uint64 { return uint64(r.Intn(3)) }},
	{"Intn(1<<30)", func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 30)) }},
	{"Intn(3<<61)", func(r *rand.Rand) uint64 { return uint64(r.Intn(3 << 61)) }},
	{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
	{"Int31n(1000)", func(r *rand.Rand) uint64 { return uint64(r.Int31n(1000)) }},
}

// drawCount makes the ring wrap twice: the first regLen draws fill the
// register, the rest read only values draws wrote.
const drawCount = 2*regLen + 300

// compare draws count values with draw d from both generators and fails at
// the first difference.
func compare(t *testing.T, what string, got, want *rand.Rand, d int, count int) {
	t.Helper()
	for k := 0; k < count; k++ {
		if g, w := draws[d].draw(got), draws[d].draw(want); g != w {
			t.Fatalf("%s: %s draw %d = %#x, math/rand's is %#x", what, draws[d].name, k, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds New(seed) to rand.New(rand.NewSource(seed))
// draw for draw: for each seed, each method on its own past two wraps of
// the ring, all methods interleaved, and the streams after in-place re-seeds
// made before the inline values run out, between that and a full register,
// and after the register filled.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds {
		for d := range draws {
			compare(t, fmt.Sprint("seed ", seed), New(seed), rand.New(rand.NewSource(seed)), d, drawCount)
		}

		got, want := New(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < drawCount; k++ {
			compare(t, fmt.Sprint("seed ", seed, ", interleaved"), got, want, k%len(draws), 1)
		}

		for i, after := range []int{0, 5, inline, 100, regLen, drawCount} {
			reseed := seed ^ int64(i+1)*0x5851f42d4c957f2d
			got, want := New(seed), rand.New(rand.NewSource(seed))
			compare(t, fmt.Sprint("seed ", seed, " before re-seed"), got, want, 1, after)
			got.Seed(reseed)
			want.Seed(reseed)
			compare(t, fmt.Sprintf("seed %d re-seeded to %d after %d draws", seed, reseed, after), got, want, i%len(draws), drawCount)
		}
	}
}

// TestMulmod checks the one-fold reduction against Go's remainder where the
// fold's sum is largest: operands near the modulus, powers of two and
// products that are ≡ 1.
func TestMulmod(t *testing.T) {
	edges := []uint64{0, 1, 2, mult, 1 << 30, 1<<31 - 3, modulus - 1, 1<<31 - 1<<15, 12345678}
	for _, a := range edges {
		for _, b := range edges {
			if a >= modulus || b >= modulus {
				continue
			}
			if got, want := mulmod(a, b), a*b%modulus; got != want {
				t.Errorf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(3))
	for k := 0; k < 100000; k++ {
		a, b := uint64(r.Int63n(modulus)), uint64(r.Int63n(modulus))
		if got, want := mulmod(a, b), a*b%modulus; got != want {
			t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// FuzzSourceMatchesMathRand runs a random sequence of draws and re-seeds on
// both generators. Each byte of ops is one step: a draw by one of the
// methods of draws, a burst of draws long enough to fill the register, or
// a re-seed derived from the fuzzed seed.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(0), []byte{7, 0, 15, 8, 1})
	f.Add(int64(-modulus), []byte{23, 23, 9, 31, 4})
	f.Add(int64(math.MinInt64), []byte{7, 7, 7, 6, 8})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i, op := range ops {
			switch kind := int(op) % (len(draws) + 2); {
			case kind < len(draws):
				compare(t, fmt.Sprint("op ", i), got, want, kind, 1)
			case kind == len(draws):
				compare(t, fmt.Sprint("burst at op ", i), got, want, i%len(draws), 100+int(op)*4)
			default:
				reseed := seed + int64(op)*modulus/3 - int64(i)
				got.Seed(reseed)
				want.Seed(reseed)
			}
		}
	})
}

var sink uint64

// BenchmarkSeedAndDraw20 builds a generator and makes 20 draws, about what a
// sampled run of the tables makes: New against math/rand's constructor.
func BenchmarkSeedAndDraw20(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"seeded", New},
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := bc.new(int64(i))
				for k := 0; k < 20; k++ {
					sink += uint64(r.Int63())
				}
			}
		})
	}
}

// BenchmarkDrawFullRegister measures one draw once every slot is written.
func BenchmarkDrawFullRegister(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"seeded", New(1)},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for k := 0; k < regLen; k++ {
				bc.r.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += uint64(bc.r.Int63())
			}
		})
	}
}
